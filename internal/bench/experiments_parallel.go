package bench

import (
	"context"
	"fmt"
	"time"

	"asr/internal/asr"
	"asr/internal/gendb"
	"asr/internal/gom"
)

// Executable experiment: the concurrent read path. Not part of the
// paper's evaluation — it characterizes this implementation's parallel
// query executor (Manager.Query*Parallel) and its observability
// counters (Manager.Stats, BufferPool.Stats).

func init() {
	register(Experiment{
		ID:          "parallel",
		Title:       "Parallel backward queries and read-path counters",
		Ref:         "implementation (§5.6 strategies)",
		Description: "Runs the same backward query sequentially and with 2/4/8 workers, without an index (exhaustive search) and through a canonical ASR, reporting wall time and the Stats() counters.",
		Run:         runParallel,
	})
}

func runParallel() (*Table, error) {
	db, err := gendb.Generate(simSpec)
	if err != nil {
		return nil, err
	}
	pool := newIndexPool()
	mgr := asr.NewManager(db.Base, pool)
	span := db.Path.Len()

	// Pick a target actually reachable over the path (gendb connects only
	// D_i of the C_i objects per level, so a fixed extent member may have
	// no incoming path).
	var target gom.Value
	for _, anchor := range db.Extents[0] {
		vals, err := mgr.QueryForward(db.Path, 0, span, gom.Ref(anchor))
		if err != nil {
			return nil, err
		}
		if len(vals) > 0 {
			target = vals[0]
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("parallel: no anchor reaches level %d", span)
	}
	mgr.ResetStats()

	t := &Table{
		ID:      "parallel",
		Title:   "Backward query Q_{0,4}(bw): sequential vs parallel",
		Ref:     "implementation",
		Columns: []string{"strategy", "workers", "wall time", "results"},
	}

	query := func(workers int) (int, time.Duration, error) {
		startT := time.Now()
		vals, err := mgr.QueryBackwardCtx(context.Background(), db.Path, 0, span, workers, target)
		return len(vals), time.Since(startT), err
	}

	want := -1
	for _, phase := range []string{"exhaustive search", "canonical ASR"} {
		if phase == "canonical ASR" {
			if _, err := mgr.CreateIndex(db.Path, asr.Canonical, asr.NoDecomposition(db.Path.Arity()-1)); err != nil {
				return nil, err
			}
		}
		for _, w := range []int{1, 2, 4, 8} {
			n, d, err := query(w)
			if err != nil {
				return nil, err
			}
			if want == -1 {
				want = n
			} else if n != want {
				return nil, fmt.Errorf("parallel: %s w=%d returned %d results, want %d", phase, w, n, want)
			}
			t.AddRow(phase, fmt.Sprint(w), d.Round(10*time.Microsecond).String(), fmt.Sprint(n))
		}
	}

	ms := mgr.Stats()
	ps := pool.Stats()
	t.Note = fmt.Sprintf(
		"all strategies return identical results; at this small scale goroutine fan-out overhead can dominate "+
			"(see BenchmarkQueryParallel for scaling); manager: %s; index pool: logical=%d hits=%d misses=%d pins=%d evictions=%d",
		ms, ps.LogicalAccesses, ps.Hits, ps.Misses, ps.Pins, ps.Evictions)
	return t, nil
}
