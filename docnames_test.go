package repro

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestDocNames resolves every backticked Go name in the docs — README,
// DESIGN, EXPERIMENTS and docs/*.md — against the tree's declarations,
// so that a doc naming a declaration that was deleted or renamed fails
// the build. CHANGES.md and ROADMAP.md are the project's history and
// plan: they name what is gone and what is not yet built, and are not
// checked. See docNameResolver.unresolved for what counts as a name.
func TestDocNames(t *testing.T) {
	r := docNames(t)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range r.unresolved(string(text)) {
			t.Errorf("%s:%d: `%s` %s", file, u.line, u.name, u.why)
		}
	}
}

// TestDocNamesFixture plants names of each kind the check tells apart:
// names of deleted declarations and of ones never declared fail, live
// ones, standard-library ones, a variable's method, metric and span
// names, schema paths and file names pass.
func TestDocNamesFixture(t *testing.T) {
	r := docNames(t)
	text := "```go\nengine.Engine in a code block is not read\n```\n" +
		"`engine.Engine` `gom.Members` `asr.FanOut` `Config.QueryWorkers`\n" +
		"`TestNoSuchTest` `Walker.NoSuchMethod` `query.Engine.NoSuchMethod()`\n" +
		"`gom.Walker.KeepMembers` `query.Engine.RunCtx` `Config.SlowLogCapacity`\n" +
		"`Engine.plan` `asr.Index.probeAll` `TestDocNames` `ExampleNewMaintainer`\n" +
		"`BenchmarkQueryParallel/indexed/shards8` `context.Background()`\n" +
		"`sync.RWMutex` `ctx.Err()` `query.execute` `asr.probe_us`\n" +
		"`ROBOT.Arm.MountedTool` `BASE.gom` `go test ./...`\n"
	var got []string
	for _, u := range r.unresolved(text) {
		got = append(got, u.name)
	}
	want := []string{"engine.Engine", "gom.Members", "asr.FanOut", "Config.QueryWorkers",
		"TestNoSuchTest", "Walker.NoSuchMethod", "query.Engine.NoSuchMethod()"}
	if !slices.Equal(got, want) {
		t.Errorf("flagged %q, want %q", got, want)
	}
}

var docNamesOnce struct {
	sync.Once
	r   *docNameResolver
	err error
}

// docNames loads the module once for both tests.
func docNames(t *testing.T) *docNameResolver {
	t.Helper()
	docNamesOnce.Do(func() { docNamesOnce.r, docNamesOnce.err = newDocNameResolver(".") })
	if docNamesOnce.err != nil {
		t.Fatal(docNamesOnce.err)
	}
	return docNamesOnce.r
}

// docNameResolver knows the names a doc may use: packages, the module's
// named types, its variables (parameters and locals too) and its test
// functions.
type docNameResolver struct {
	pkgs  map[string][]*types.Package // by package name: the module's and the standard library's it imports
	types map[string][]types.Object   // the module's named types, exported or not
	vars  map[string][]types.Object   // the module's variables
	tests map[string]bool             // Test, Benchmark, Example and Fuzz functions
}

func newDocNameResolver(root string) (*docNameResolver, error) {
	l, _, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	r := &docNameResolver{
		pkgs:  map[string][]*types.Package{},
		types: map[string][]types.Object{},
		vars:  map[string][]types.Object{},
		tests: map[string]bool{},
	}
	for ip, pkg := range l.pkgs {
		if pkg == nil {
			continue
		}
		r.pkgs[pkg.Name()] = append(r.pkgs[pkg.Name()], pkg)
		if _, ok := l.checkers[ip]; !ok {
			continue // the standard library's declarations are reached through its packages
		}
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				r.types[n] = append(r.types[n], tn)
			}
		}
	}
	testPkgs := l.xtests
	for _, c := range l.checkers {
		testPkgs = append(testPkgs, c.pkg)
	}
	for _, pkg := range testPkgs {
		for _, n := range pkg.Scope().Names() {
			if _, ok := pkg.Scope().Lookup(n).(*types.Func); ok && testFunc.MatchString(n) {
				r.tests[n] = true
			}
		}
	}
	for _, f := range l.files {
		for _, obj := range f.defs {
			if v, ok := obj.(*types.Var); ok {
				r.vars[v.Name()] = append(r.vars[v.Name()], v)
			}
		}
	}
	return r, nil
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	goName   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+(\(\))?$`)
	testFunc = regexp.MustCompile(`^(Test|Benchmark|Example|Fuzz)[A-Z0-9_]\w*$`)
)

type docName struct {
	name string
	line int
	why  string
}

// unresolved returns the backticked names of text, outside fenced code
// blocks, that do not resolve, in order. A name is checked when its
// code span is nothing but
//   - a test function (`TestName`, `BenchmarkName/sub`): it must be
//     declared;
//   - pkg.Name…, a package of the module or of the standard library it
//     imports: an exported Name must be declared there, and every later
//     component must be a field or method of what precedes it; an
//     unexported one that is not declared is a metric or span name
//     (`query.execute`) and is not checked;
//   - Type.Member…, a named type of the module: Member must be a field
//     or method of a type of that name;
//   - x.Name…, x lowercase and neither: x must be a variable of the
//     module whose type has Name — a package that does not exist fails
//     here.
//
// A name rooted at a capitalized word that is no Go type is a schema
// path (`ROBOT.Arm`) or a file name (`BASE.gom`) and is not checked.
func (r *docNameResolver) unresolved(text string) []docName {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text = strings.Join(lines, "\n")
	var out []docName
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		name := text[m[2]:m[3]]
		var why string
		switch {
		case testFunc.MatchString(strings.SplitN(name, "/", 2)[0]):
			if !r.tests[strings.SplitN(name, "/", 2)[0]] {
				why = "is no test function of the module"
			}
		case goName.MatchString(name):
			why = r.resolve(strings.Split(strings.TrimSuffix(name, "()"), "."))
		}
		if why != "" {
			out = append(out, docName{name, strings.Count(text[:m[0]], "\n") + 1, why})
		}
	}
	return out
}

// resolve returns why parts, a dotted name, does not resolve, or "".
func (r *docNameResolver) resolve(parts []string) string {
	head, next := parts[0], parts[1]
	if pkgs := r.pkgs[head]; len(pkgs) > 0 {
		var objs []types.Object
		for _, pkg := range pkgs {
			if obj := pkg.Scope().Lookup(next); obj != nil {
				objs = append(objs, obj)
			}
		}
		switch {
		case len(objs) == 0 && !token.IsExported(next):
			return ""
		case len(objs) == 0:
			return "is not declared in package " + head
		}
		return members(objs, parts[2:])
	}
	if tns := r.types[head]; len(tns) > 0 {
		return members(tns, parts[1:])
	}
	if token.IsExported(head) || !token.IsExported(next) {
		return ""
	}
	if members(r.vars[head], parts[1:]) == "" {
		return ""
	}
	return "names no package or type, nor a variable with that member"
}

// members returns "" when, for one of objs, each of names is a field or
// method of what precedes it.
func members(objs []types.Object, names []string) string {
	for _, obj := range objs {
		if hasMembers(obj, names) {
			return ""
		}
	}
	return "has no such field or method"
}

func hasMembers(obj types.Object, names []string) bool {
	if len(names) == 0 {
		return true
	}
	switch obj.(type) {
	case *types.TypeName, *types.Var:
	default:
		return false
	}
	T := obj.Type()
	var pkg *types.Package // an unexported member is looked up in its type's package
	if ptr, ok := T.(*types.Pointer); ok {
		T = ptr.Elem()
	}
	if named, ok := T.(*types.Named); ok {
		pkg = named.Obj().Pkg()
	}
	m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, names[0])
	return m != nil && hasMembers(m, names[1:])
}
