package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileRunPatterns reads every `go test -run` pattern in the
// Makefile and fails when one of its |-alternatives matches no test in
// the packages named on that line. `go test -run 'X|Y'` passes when it
// matches nothing, so a renamed or deleted test would otherwise empty a
// make gate without a sound. The pattern ^$ (run no test, only
// benchmarks) is deliberate and skipped.
func TestMakefileRunPatterns(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	lines := runPatterns(string(src))
	if len(lines) == 0 {
		t.Fatal("the Makefile has no go test -run line")
	}
	for _, l := range lines {
		alts, err := unmatched(l)
		if err != nil {
			t.Fatalf("Makefile: -run %q: %v", l.pattern, err)
		}
		for _, alt := range alts {
			t.Errorf("Makefile: -run %q: %q matches no test in %s", l.pattern, alt, strings.Join(l.dirs, " "))
		}
	}
}

// TestMakefileRunPatternsFixture runs the check over a recipe whose
// second alternative names a test that does not exist, beside a
// benchmark-only line.
func TestMakefileRunPatternsFixture(t *testing.T) {
	lines := runPatterns("x:\n\t$(GO) test -count=1 -run 'TestMakefileRunPatterns$$|TestNoSuchTest' .\n" +
		"\t$(GO) test -run '^$$' -bench 'BenchmarkReadLarge' -benchtime 1x .\n")
	if len(lines) != 1 || lines[0].pattern != "TestMakefileRunPatterns$|TestNoSuchTest" || len(lines[0].dirs) != 1 {
		t.Fatalf("parsed %+v", lines)
	}
	alts, err := unmatched(lines[0])
	if err != nil || len(alts) != 1 || alts[0] != "TestNoSuchTest" {
		t.Fatalf("unmatched %q, %v; want [TestNoSuchTest]", alts, err)
	}
}

// runLine is one `go test -run PATTERN PKG…` recipe line.
type runLine struct {
	pattern string
	dirs    []string
}

// runPatterns finds the go test lines of a Makefile that pass -run and
// returns each pattern, with make's $$ unescaped, and the package
// directories on its line.
func runPatterns(makefile string) []runLine {
	var out []runLine
	for _, line := range strings.Split(strings.ReplaceAll(makefile, "\\\n", " "), "\n") {
		if !strings.Contains(line, "$(GO) test") {
			continue
		}
		var l runLine
		fields := strings.Fields(line)
		for i := 0; i < len(fields); i++ {
			f := fields[i]
			switch {
			case f == "-run" && i+1 < len(fields):
				i++
				l.pattern = fields[i]
			case strings.HasPrefix(f, "-run="):
				l.pattern = strings.TrimPrefix(f, "-run=")
			case f == "." || strings.HasPrefix(f, "./"):
				l.dirs = append(l.dirs, f)
			}
		}
		l.pattern = strings.ReplaceAll(strings.Trim(l.pattern, `'"`), "$$", "$")
		if l.pattern == "" || l.pattern == "^$" {
			continue
		}
		out = append(out, l)
	}
	return out
}

// unmatched returns the |-alternatives of l's pattern that match no
// test in l's packages.
func unmatched(l runLine) ([]string, error) {
	var names []string
	for _, dir := range l.dirs {
		n, err := testNames(dir)
		if err != nil {
			return nil, err
		}
		names = append(names, n...)
	}
	var out []string
	for _, alt := range strings.Split(l.pattern, "|") {
		re, err := regexp.Compile(alt)
		if err != nil {
			return nil, err
		}
		if !slices.ContainsFunc(names, re.MatchString) {
			out = append(out, alt)
		}
	}
	return out, nil
}

// testNames lists the Test, Fuzz and Example functions declared in the
// _test.go files of dir.
func testNames(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names, nil
}
