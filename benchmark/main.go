// Command benchmark is the repository's yardstick: it drives the whole
// stack the way it is used — reads over the wire protocol on loopback
// TCP, maintained durable updates on the object base beside them — and
// reports end-to-end metrics (tracing off) and per-layer metrics (a
// separate traced pass) for four seeded workloads, checking every
// output. BENCHMARK.json at the repository root names the command,
// workloads, metrics and regression bounds; README.md explains them.
//
//	go run ./benchmark -seed 1                     # every workload, both passes
//	go run ./benchmark -workload mixed -trace 1    # one workload, one pass
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (wire_small, read_large, write_durable, mixed) and print its result line last; empty runs all four, untraced then traced")
		seed     = flag.Int64("seed", 1, "seed of every operation stream: the distinct queries, their order, the updates")
		seconds  = flag.Float64("seconds", 15, "measured seconds per timed run (a tenth more is spent warming up)")
		trace    = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "shrink every fixture to scale 4: a seconds-long check of the harness, not a measurement")
		agree    = flag.Bool("agree", false, "run the suite twice on the same seed and fail if an end-to-end metric disagrees by more than its bound")
		out      = flag.String("out", "benchmark/out", "directory for <workload>.trace.json and the scratch fixtures")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, out: *out}
	var ok bool
	var err error
	switch {
	case *workload != "":
		ok, err = runOne(os.Stdout, *workload, opt, *trace == 1, *smoke)
	case *agree:
		ok, err = runAgree(os.Stdout, opt, *smoke)
	default:
		_, ok, err = runSuite(os.Stdout, opt, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// header records what the numbers were measured on.
func header(w io.Writer, opt options, smoke bool) {
	fmt.Fprintf(w, "benchmark: seed %d, %.3g s measured per timed run (+%.3g s warm-up), GOMAXPROCS %d, NumCPU %d, %s, git %s\n",
		opt.seed, opt.seconds, opt.warm().Seconds(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), gitRef())
	fmt.Fprintln(w, "reads cross loopback TCP (127.0.0.1), not a link; writes are in-process calls on the object base; the WAL syncs once per commit; page reads come from the OS cache")
	if smoke {
		fmt.Fprintln(w, "SMOKE: scale-4 fixtures; these numbers check the harness and measure nothing")
	}
}

// gitRef reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitRef() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if sha, err := os.ReadFile(".git/" + name); err == nil {
			return strings.TrimSpace(string(sha))
		}
		return name
	}
	return ref
}

func runPass(name string, opt options, traced, smoke bool) (passResult, error) {
	sp, ok := specByName(name)
	if !ok {
		return passResult{}, fmt.Errorf("unknown workload %q", name)
	}
	if smoke {
		sp = sp.smoke()
	}
	if traced {
		return runTraced(sp, opt)
	}
	return runUntraced(sp, opt)
}

func printPass(w io.Writer, name string, traced bool, res passResult) {
	mode := "end to end, tracing off"
	if traced {
		mode = "per layer, traced pass"
	}
	fmt.Fprintf(w, "\n== %s (%s): %d attempted, %d failed\n", name, mode, res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s (%s is better; %d samples", m.Name, m.Value, m.Unit, m.Better, m.Samples)
		if m.Spread > 0 {
			fmt.Fprintf(w, "; slices spread %.1f%%", 100*m.Spread)
		}
		fmt.Fprintln(w, ")")
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one pass of one workload and ends with its result line.
func runOne(w io.Writer, name string, opt options, traced, smoke bool) (bool, error) {
	header(w, opt, smoke)
	res, err := runPass(name, opt, traced, smoke)
	if err != nil {
		return false, err
	}
	printPass(w, name, traced, res)
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]resultValue{}}
	for _, m := range res.metrics {
		line.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "\n%s\n", data)
	return res.correct, nil
}

// runSuite runs every workload untraced and traced, prints the layer
// predictions, and ends with every metric as one JSON block.
func runSuite(w io.Writer, opt options, smoke bool) ([]measured, bool, error) {
	header(w, opt, smoke)
	var all []measured
	ok := true
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runPass(sp.name, opt, traced, smoke)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", sp.name, err)
			}
			printPass(w, sp.name, traced, res)
			all = append(all, res.metrics...)
			ok = ok && res.correct
		}
	}
	printPredictions(w, all)
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return nil, false, err
	}
	fmt.Fprintf(w, "\n%s\n", data)
	return all, ok, nil
}

func lookup(all []measured, workload, name string) float64 {
	for _, m := range all {
		if m.Workload == workload && m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// printPredictions states, for the numbers just measured, whether each
// layer metric sits where the workload table says it should. They are
// observations on the seed, not gates: a miss is printed, not failed.
func printPredictions(w io.Writer, all []measured) {
	v := func(workload, name string) float64 { return lookup(all, workload, name) }
	// The share is taken of the unloaded round trip the overhead was
	// measured in: the engine's run plus the overhead itself.
	share := func(workload string) float64 {
		o := v(workload, "server.overhead_us")
		return o / (o + v(workload, "query.run_us"))
	}
	checks := []struct {
		claim string
		holds bool
	}{
		{fmt.Sprintf("server.overhead_us is >= 50%% of an unloaded round trip on wire_small (%.0f%%)", 100*share("wire_small")), share("wire_small") >= 0.5},
		{fmt.Sprintf("server.overhead_us is < 10%% of an unloaded round trip on read_large (%.1f%%)", 100*share("read_large")), share("read_large") < 0.1},
		{fmt.Sprintf("storage.pool.hit_ratio is > 0.99 on wire_small (%.4f)", v("wire_small", "storage.pool.hit_ratio")), v("wire_small", "storage.pool.hit_ratio") > 0.99},
		{fmt.Sprintf("storage.pool.hit_ratio is < 0.9 on read_large (%.4f)", v("read_large", "storage.pool.hit_ratio")), v("read_large", "storage.pool.hit_ratio") < 0.9},
		{"the wire and query layers report no work on write_durable",
			v("write_durable", "wire.bytes_per_req") == 0 && v("write_durable", "query.run_us") == 0 && v("write_durable", "client.read_p50_us") == 0},
	}
	fmt.Fprintln(w, "\n== layer predictions on these numbers")
	for _, c := range checks {
		mark := "holds"
		if !c.holds {
			mark = "MISSED"
		}
		fmt.Fprintf(w, "  %-6s %s\n", mark, c.claim)
	}
	for _, sp := range specs {
		pct := v(sp.name, "trace.overhead_pct")
		mark := "holds"
		if !(pct < 5) {
			mark = "MISSED"
		}
		fmt.Fprintf(w, "  %-6s trace.overhead_pct is < 5 on %s (%.2f)\n", mark, sp.name, pct)
	}
}

// runAgree runs the suite twice on the same code and seed and compares
// every end-to-end metric with its bound: the self-agreement a
// regression gate needs before its bounds mean anything.
func runAgree(w io.Writer, opt options, smoke bool) (bool, error) {
	first, ok1, err := runSuite(io.Discard, opt, smoke)
	if err != nil {
		return false, err
	}
	second, ok2, err := runSuite(io.Discard, opt, smoke)
	if err != nil {
		return false, err
	}
	header(w, opt, smoke)
	fmt.Fprintln(w, "\n== self-agreement: two runs of the same code and seed")
	ok := ok1 && ok2
	for _, sp := range specs {
		for _, d := range endToEnd {
			a, b := lookup(first, sp.name, d.Name), lookup(second, sp.name, d.Name)
			diff := math.Abs(a-b) / a
			mark := "agrees"
			if diff > d.Bound {
				mark, ok = "DISAGREES", false
			}
			fmt.Fprintf(w, "  %-9s %-14s %-10s %12.4f vs %12.4f %-4s differ by %5.1f%% (bound %.0f%%)\n",
				mark, sp.name, d.Name, a, b, d.Unit, 100*diff, 100*d.Bound)
		}
	}
	// The single-writer replay counts must repeat exactly.
	for _, name := range []string{"storage.pool.logical_per_write", "storage.wal.records_per_write", "storage.wal.syncs_per_write"} {
		a, b := lookup(first, "write_durable", name), lookup(second, "write_durable", name)
		mark := "repeats"
		if a != b {
			mark, ok = "DIFFERS", false
		}
		fmt.Fprintf(w, "  %-9s %-14s %-32s %v vs %v\n", mark, "write_durable", name, a, b)
	}
	return ok, nil
}
