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
//	asrbench -snapshot BENCH_9.json                         # perf+startup snapshot
//	asrbench -snapshot BENCH_9.json -compare BENCH_4.json   # informational diff
//	asrbench -snapshot BENCH_9.json -gate bench-history     # trajectory gate (CI)
package main

import (
	"flag"
	"fmt"
	"os"

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
		snap    = flag.String("snapshot", "", "run the perf+startup experiments and write a machine-readable snapshot to this file")
		compare = flag.String("compare", "", "with -snapshot: diff the fresh snapshot against this previous snapshot file")
		gateDir = flag.String("gate", "", "with -snapshot: trajectory-gate the snapshot against the history in this directory (fails on regression)")
		gateThr = flag.Float64("gate-threshold", 25, "max allowed regression (percent) for pinned sections before the gate fails")
		gatePin = flag.String("gate-pin", "shape", "comma-separated snapshot sections the gate enforces; others are recorded but informational")
		gateN   = flag.Int("gate-keep", 5, "number of history snapshots to retain in the gate directory")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `asrbench — run the paper-reproduction experiments.

usage:
  asrbench -list                       enumerate experiments (fig/tab ids)
  asrbench -experiment ID [-csv] [-metrics]
  asrbench -all
  asrbench -snapshot OUT.json [-compare PREV.json]   perf+startup snapshot + diff
  asrbench -snapshot OUT.json -gate DIR              snapshot, then gate against
                                                     the last -gate-keep history
                                                     snapshots; exits 1 if a
                                                     pinned section regresses
                                                     more than -gate-threshold %

flags:
`)
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), `
docs: EXPERIMENTS.md (measured output per paper claim), docs/PERFORMANCE.md
      (perf experiment + snapshots), docs/OBSERVABILITY.md (-metrics,
      explain-calib calibration).
`)
	}
	flag.Parse()

	switch {
	case *snap != "":
		cur, err := takeSnapshot()
		if err != nil {
			fail(err)
		}
		if err := writeSnapshot(cur, *snap); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d metrics)\n", *snap, len(cur.Metrics))
		if *compare != "" {
			if err := compareSnapshots(*compare, cur); err != nil {
				fail(err)
			}
		}
		if *gateDir != "" {
			cfg := gateConfig{dir: *gateDir, threshold: *gateThr, pinned: *gatePin, keep: *gateN}
			failures, err := runGate(cfg, cur)
			if err != nil {
				fail(err)
			}
			if len(failures) > 0 {
				os.Exit(1)
			}
		}
	case *list:
		fmt.Printf("%-14s %-12s %s\n", "id", "paper ref", "title")
		for _, e := range bench.All() {
			fmt.Printf("%-14s %-12s %s\n", e.ID, shorten(e.Ref), e.Title)
		}
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

func shorten(ref string) string {
	r := []rune(ref)
	if len(r) > 12 {
		return string(r[:12])
	}
	return ref
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "asrbench:", err)
	os.Exit(1)
}
