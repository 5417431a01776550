package repro

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDeadSurface lists every exported declaration under internal/ that
// no non-test file of the module references, and requires that list to
// equal the checked-in allowlist testdata/surface_allow.txt: a new dead
// declaration fails the test, and so does an allowlist entry that is no
// longer dead. A test is not a caller, not even another package's test;
// only a package that no non-test file imports (a test-support package)
// has its exports exempt.
func TestDeadSurface(t *testing.T) {
	allow, err := readAllowlist("testdata/surface_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale, err := checkSurface(".", allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unlisted {
		t.Errorf("%s: no product code references it; delete it (with its tests), move it into its package's tests, or allowlist it with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("%s: allowlisted but no longer dead; remove it from testdata/surface_allow.txt", name)
	}
}

// TestDeadSurfaceFixture runs the check over testdata/surface, a small
// module with one case of each kind the check tells apart.
func TestDeadSurfaceFixture(t *testing.T) {
	allow := map[string]string{
		"a.Gone": "stale: no longer declared",
	}
	unlisted, stale, err := checkSurface("testdata/surface", allow)
	if err != nil {
		t.Fatal(err)
	}
	// a.Dead is referenced by nothing; a.T.String satisfies fmt.Stringer;
	// a.Helper is used only by package b's test; a.Own only by a's test;
	// testkit, which only b's test imports, is test support.
	if want := []string{"a.Dead", "a.Helper", "a.Own"}; !slices.Equal(unlisted, want) {
		t.Errorf("flagged %q, want %q", unlisted, want)
	}
	if want := []string{"a.Gone"}; !slices.Equal(stale, want) {
		t.Errorf("stale %q, want %q", stale, want)
	}
}

// readAllowlist reads lines of the form "pkg.Name reason" ("pkg.Type.Method
// reason" for a method); blank lines and lines starting with # are skipped.
func readAllowlist(file string) (map[string]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s: %s has no reason", file, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// checkSurface loads the module rooted at root and returns the dead
// declarations under its internal/ tree that allow does not list, and
// the allow entries that are not dead, both sorted.
func checkSurface(root string, allow map[string]string) (unlisted, stale []string, err error) {
	dead, err := deadSurface(root)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range dead {
		if _, ok := allow[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	for name := range allow {
		if !slices.Contains(dead, name) {
			stale = append(stale, name)
		}
	}
	slices.Sort(stale)
	return unlisted, stale, nil
}

// surfaceLoader type-checks a module from source with the standard
// library only: go/build finds the files, go/types checks them, and the
// standard library is checked from GOROOT without function bodies. It
// runs no command.
type surfaceLoader struct {
	ctxt     build.Context
	fset     *token.FileSet
	modPath  string
	modDir   string
	pkgs     map[string]*types.Package  // by import path
	checkers map[string]*surfaceChecker // module packages, by import path
	xtests   []*types.Package           // external test packages
	files    []surfaceFile              // module files, with what they use
	ifaces   map[*types.Interface]bool  // every interface type seen
	errs     []error
}

// surfaceFile is one type-checked module file.
type surfaceFile struct {
	test    bool
	imports []string
	uses    []types.Object
	defs    []types.Object
}

// loadModule type-checks every package of the module rooted at root,
// with its tests, and returns the loader and the package directories.
func loadModule(root string) (*surfaceLoader, []string, error) {
	l, err := newSurfaceLoader(root)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, nil, err
	}
	for _, dir := range dirs {
		l.loadDir(dir)
	}
	if err := errors.Join(l.errs...); err != nil {
		return nil, nil, err
	}
	return l, dirs, nil
}

func deadSurface(root string) ([]string, error) {
	l, dirs, err := loadModule(root)
	if err != nil {
		return nil, err
	}

	// A package that no non-test file imports is test support.
	imported := map[string]bool{}
	for _, f := range l.files {
		if !f.test {
			for _, ip := range f.imports {
				imported[ip] = true
			}
		}
	}

	// Candidates: exported package-level declarations, and exported
	// methods of any named type, in the non-test files of the product
	// packages under internal/.
	cands := map[types.Object]string{}
	var named []*types.TypeName
	for _, dir := range dirs {
		if (dir != "internal" && !strings.HasPrefix(dir, "internal/")) || !imported[l.importPath(dir)] {
			continue
		}
		pkg := l.pkgs[l.importPath(dir)]
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if l.isTestPos(obj.Pos()) {
				continue
			}
			if obj.Exported() {
				cands[obj] = pkg.Name() + "." + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			named = append(named, tn)
			for i := 0; i < nt.NumMethods(); i++ {
				m := nt.Method(i)
				if m.Exported() && !l.isTestPos(m.Pos()) {
					cands[m] = pkg.Name() + "." + n + "." + m.Name()
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, f := range l.files {
		if f.test {
			continue
		}
		for _, obj := range f.uses {
			used[origin(obj)] = true
		}
	}
	// A method that satisfies an interface may be called through it, by
	// the module or by the standard library (fmt calls String, errors
	// calls Unwrap), so it counts as used.
	for _, tn := range named {
		for _, T := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			if types.IsInterface(T) {
				continue
			}
			for iface := range l.ifaces {
				if !types.Implements(T, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(T, false, tn.Pkg(), iface.Method(i).Name())
					if m != nil {
						used[origin(m)] = true
					}
				}
			}
		}
	}

	var dead []string
	for obj, name := range cands {
		if !used[obj] {
			dead = append(dead, name)
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// dynamicIfaces are interfaces the standard library asserts inside
// function bodies, which the loader does not check.
const dynamicIfaces = `package dyn
type unwrap interface{ Unwrap() error }
type unwrapAll interface{ Unwrap() []error }
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
`

func newSurfaceLoader(root string) (*surfaceLoader, error) {
	modDir, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}
	l := &surfaceLoader{
		ctxt:     build.Default,
		fset:     token.NewFileSet(),
		modPath:  modPath,
		modDir:   modDir,
		pkgs:     map[string]*types.Package{},
		checkers: map[string]*surfaceChecker{},
		ifaces:   map[*types.Interface]bool{},
	}
	// Pure-Go variants of the standard library, so that no cgo runs.
	l.ctxt.CgoEnabled = false
	f, err := parser.ParseFile(l.fset, "dyn.go", dynamicIfaces, 0)
	if err != nil {
		return nil, err
	}
	dyn, err := (&types.Config{}).Check("dyn", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	l.collectScopeIfaces(dyn)
	return l, nil
}

// packageDirs lists the module's package directories, relative to its
// root, the way `go list ./...` does: testdata and directories starting
// with . or _ are skipped, and so is any nested module.
func (l *surfaceLoader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.modDir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(l.modDir, p)
		rel = filepath.ToSlash(rel)
		if rel != "." {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if _, err := l.ctxt.ImportDir(p, 0); err == nil {
			dirs = append(dirs, rel)
		} else if _, ok := err.(*build.NoGoError); !ok {
			return err
		}
		return nil
	})
	return dirs, err
}

func (l *surfaceLoader) importPath(dir string) string {
	if dir == "." {
		return l.modPath
	}
	return l.modPath + "/" + dir
}

func (l *surfaceLoader) isTestPos(pos token.Pos) bool {
	return strings.HasSuffix(l.fset.Position(pos).Filename, "_test.go")
}

// loadDir checks the package in dir, adds its in-package test files to
// the same package, then checks its external test package. Adding the
// test files to the checked package rather than checking a second copy
// keeps one object per declaration, and test files of two packages may
// import each other's package.
func (l *surfaceLoader) loadDir(dir string) {
	bp, err := l.ctxt.ImportDir(filepath.Join(l.modDir, dir), 0)
	if err != nil {
		l.errs = append(l.errs, err)
		return
	}
	l.loadModulePkg(dir, bp)
	if len(bp.TestGoFiles) > 0 {
		c := l.checkers[l.importPath(dir)]
		l.check(c, dir, bp.TestGoFiles)
	}
	if len(bp.XTestGoFiles) > 0 {
		c := l.newChecker(bp.Name + "_test")
		l.check(c, dir, bp.XTestGoFiles)
		l.xtests = append(l.xtests, c.pkg)
	}
}

func (l *surfaceLoader) loadModulePkg(dir string, bp *build.Package) *types.Package {
	ip := l.importPath(dir)
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg
	}
	c := l.newChecker(ip)
	l.check(c, dir, bp.GoFiles)
	l.pkgs[ip] = c.pkg
	l.checkers[ip] = c
	return c.pkg
}

// surfaceChecker checks one module package, file set by file set.
type surfaceChecker struct {
	*types.Checker
	pkg  *types.Package
	info *types.Info
}

func (l *surfaceLoader) newChecker(ip string) *surfaceChecker {
	c := &surfaceChecker{
		pkg: types.NewPackage(ip, ""),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
		},
	}
	conf := &types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	c.Checker = types.NewChecker(conf, l.fset, c.pkg, c.info)
	return c
}

// check parses names, checks them as part of c's package and records
// what each file uses.
func (l *surfaceLoader) check(c *surfaceChecker, dir string, names []string) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.modDir, dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		files = append(files, f)
	}
	_ = c.Files(files) // errors go to the Error hook
	l.collectIfaces(c.info)
	l.collectScopeIfaces(c.pkg)
	for _, f := range files {
		sf := surfaceFile{test: l.isTestPos(f.Pos())}
		for _, spec := range f.Imports {
			sf.imports = append(sf.imports, strings.Trim(spec.Path.Value, `"`))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.info.Uses[id]; obj != nil {
					sf.uses = append(sf.uses, obj)
				}
				if obj := c.info.Defs[id]; obj != nil {
					sf.defs = append(sf.defs, obj)
				}
			}
			return true
		})
		l.files = append(l.files, sf)
	}
}

// Import makes the loader a types.Importer: module packages are checked
// with their files, standard-library packages from GOROOT.
func (l *surfaceLoader) Import(ip string) (*types.Package, error) {
	if ip == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg, nil
	}
	if ip == l.modPath || strings.HasPrefix(ip, l.modPath+"/") {
		dir := strings.TrimPrefix(strings.TrimPrefix(ip, l.modPath), "/")
		if dir == "" {
			dir = "."
		}
		bp, err := l.ctxt.ImportDir(filepath.Join(l.modDir, dir), 0)
		if err != nil {
			return nil, err
		}
		return l.loadModulePkg(dir, bp), nil
	}
	return l.importStd(ip, "")
}

// importStd checks a standard-library package without function bodies;
// srcDir resolves the standard library's vendored imports.
func (l *surfaceLoader) importStd(ip, srcDir string) (*types.Package, error) {
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg, nil
	}
	bp, err := l.ctxt.Import(ip, srcDir, 0)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[bp.ImportPath]; ok {
		return pkg, nil
	}
	if !bp.Goroot {
		return nil, fmt.Errorf("%s: not in the standard library", ip)
	}
	var files []*ast.File
	for _, n := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		IgnoreFuncBodies: true,
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if p == "unsafe" {
				return types.Unsafe, nil
			}
			return l.importStd(p, bp.Dir)
		}),
		// Declarations suffice; the standard library is checked by its
		// own build, and some of its files need the compiler's intrinsics.
		Error: func(error) {},
	}
	pkg, _ := conf.Check(bp.ImportPath, l.fset, files, nil)
	l.pkgs[bp.ImportPath] = pkg
	l.collectScopeIfaces(pkg)
	return pkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

func (l *surfaceLoader) collectIfaces(info *types.Info) {
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			l.addIface(it)
		}
	}
}

// collectScopeIfaces records the package's named interfaces.
func (l *surfaceLoader) collectScopeIfaces(pkg *types.Package) {
	if pkg == nil {
		return
	}
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				l.addIface(it)
			}
		}
	}
}

func (l *surfaceLoader) addIface(it *types.Interface) {
	if it.NumMethods() > 0 && it.IsMethodSet() {
		l.ifaces[it] = true
	}
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}
