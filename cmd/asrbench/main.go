// Command asrbench runs the paper-reproduction experiments: every table
// and figure of Kemper & Moerkotte's "Access Support in Object Bases"
// plus the page-level validation experiments.
//
// Usage:
//
//	asrbench -list                 # enumerate experiments
//	asrbench -experiment fig6      # run one experiment
//	asrbench -all                  # run everything
//	asrbench -experiment fig6 -csv # machine-readable output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"unicode/utf8"

	"asr/internal/bench"
	"asr/internal/telemetry"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		id      = flag.String("experiment", "", "experiment id to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		csv     = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		metrics = flag.Bool("metrics", false, "emit a telemetry snapshot (Prometheus text) after each experiment")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `asrbench — run the paper-reproduction experiments.

usage:
  asrbench -list                       enumerate experiments (fig/tab ids)
  asrbench -experiment ID [-csv] [-metrics]
  asrbench -all

flags:
`)
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), `
docs: EXPERIMENTS.md (measured output per paper claim), docs/OBSERVABILITY.md
      (-metrics, explain-calib calibration), docs/PERFORMANCE.md (how the
      system's speed is measured: BENCHMARK.json, go run ./benchmark).
`)
	}
	flag.Parse()

	switch {
	case *list:
		printList(os.Stdout, bench.All())
	case *all:
		for _, e := range bench.All() {
			if err := runOne(e, *csv, *metrics); err != nil {
				fail(err)
			}
		}
	case *id != "":
		e, ok := bench.Lookup(*id)
		if !ok {
			fail(fmt.Errorf("unknown experiment %q; use -list", *id))
		}
		if err := runOne(e, *csv, *metrics); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(e bench.Experiment, csv, metrics bool) error {
	if metrics {
		// Per-experiment snapshot: zero the registry so the dump below
		// shows only this experiment's instrumentation counts.
		telemetry.Default().Reset()
	}
	tab, err := e.Run()
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	if csv {
		fmt.Print(tab.CSV())
	} else {
		fmt.Println(tab.String())
	}
	if metrics {
		fmt.Printf("-- metrics after %s --\n", e.ID)
		if _, err := telemetry.Default().WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// printList prints one line per experiment, the paper-reference column
// as wide as its longest entry.
func printList(w io.Writer, all []bench.Experiment) {
	width := len("paper ref")
	for _, e := range all {
		width = max(width, utf8.RuneCountInString(e.Ref))
	}
	fmt.Fprintf(w, "%-14s %-*s %s\n", "id", width, "paper ref", "title")
	for _, e := range all {
		fmt.Fprintf(w, "%-14s %-*s %s\n", e.ID, width, e.Ref, e.Title)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "asrbench:", err)
	os.Exit(1)
}
