package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"asr/internal/bench"
)

func TestEveryRegisteredExperimentRunsViaCLIHelper(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	for _, e := range bench.All() {
		if err := runOne(e, false, false); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
	// CSV path too, on a cheap experiment.
	e, ok := bench.Lookup("fig4")
	if !ok {
		t.Fatal("fig4 missing")
	}
	if err := runOne(e, true, false); err != nil {
		t.Error(err)
	}
}

// TestListPrintsFullReference: -list sizes the paper-reference column
// from the data, so no reference is cut and titles stay aligned.
func TestListPrintsFullReference(t *testing.T) {
	var b strings.Builder
	printList(&b, bench.All())
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != len(bench.All())+1 {
		t.Fatalf("%d lines for %d experiments", len(lines), len(bench.All()))
	}
	titleCol := strings.Index(lines[0], "title")
	for i, e := range bench.All() {
		line := lines[i+1]
		if !strings.Contains(line, e.Ref) {
			t.Errorf("%s: reference %q cut in %q", e.ID, e.Ref, line)
		}
		if got := len([]rune(line[:strings.Index(line, e.Title)])); got != titleCol {
			t.Errorf("%s: title starts at rune %d, header at %d", e.ID, got, titleCol)
		}
	}
}

func TestRunOneEmitsMetrics(t *testing.T) {
	e, ok := bench.Lookup("explain-calib")
	if !ok {
		t.Fatal("explain-calib missing")
	}
	out := captureStdout(t, func() {
		if err := runOne(e, false, true); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{
		"EXPLAIN ANALYZE calibration",
		"-- metrics after explain-calib --",
		"# TYPE query_runs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
