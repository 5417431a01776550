package bench

import (
	"fmt"
	"time"

	"asr/internal/asr"
	"asr/internal/fault"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// Executable experiment: fault injection and degraded operation. Not
// part of the paper's evaluation — it characterizes this
// implementation's robustness layer: transactional maintenance over a
// faulty device, quarantine routing, and repair.

func init() {
	register(Experiment{
		ID:          "faults",
		Title:       "Query cost healthy vs quarantined vs repaired",
		Ref:         "implementation (robustness layer)",
		Description: "Quarantines an index by injecting permanent write faults during maintenance, then compares forward-query cost through the index (healthy), via the traversal fallback (degraded), and through the index again after Repair.",
		Run:         runFaults,
	})
}

func runFaults() (*Table, error) {
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{50, 200, 400, 800},
		D:    []int{45, 160, 320},
		Fan:  []int{1, 2, 2},
		Seed: 42,
	})
	if err != nil {
		return nil, err
	}
	// A bounded pool over the fault injector: evictions force page
	// write-backs during maintenance, which is where injected write
	// faults bite (an unbounded pool defers all writes to FlushAll).
	// One 32-frame shard, whatever GOMAXPROCS is: the automatic shard
	// count follows the CPUs, and one 64-frame shard never evicts a
	// dirty page during the updates below.
	disk := storage.NewDisk(512)
	fi := storage.NewFaultInjector(disk, fault.New(42))
	pool := storage.NewBufferPoolShards(fi, 32, storage.LRU, 1)
	mgr := asr.NewManager(db.Base, pool)
	span := db.Path.Len()
	ix, err := mgr.CreateIndex(db.Path, asr.Full, asr.BinaryDecomposition(db.Path.Arity()-1))
	if err != nil {
		return nil, err
	}

	starts := db.Extents[0]
	runQueries := func() (int, time.Duration, error) {
		results := 0
		t0 := time.Now()
		for _, s := range starts {
			vals, err := mgr.QueryForward(db.Path, 0, span, gom.Ref(s))
			if err != nil {
				return 0, 0, err
			}
			results += len(vals)
		}
		return results, time.Since(t0), nil
	}

	t := &Table{
		ID:      "faults",
		Title:   fmt.Sprintf("Forward query Q_{0,%d}(fw) over %d anchors: healthy vs degraded vs repaired", span, len(starts)),
		Ref:     "implementation",
		Columns: []string{"phase", "strategy", "wall time", "results"},
	}

	mgr.ResetStats()
	nHealthy, dHealthy, err := runQueries()
	if err != nil {
		return nil, err
	}
	t.AddRow("healthy", "full ASR (binary dec.)", dHealthy.Round(10*time.Microsecond).String(), fmt.Sprint(nHealthy))

	// Break the device and push updates until one trips maintenance into
	// quarantine; the failed update rolls back, so re-apply it after the
	// repair below would be redundant — the base already moved on.
	fi.Schedule(storage.Fault{Op: storage.OpWrite, Permanent: true})
	updates := 0
	for _, src := range db.Extents[0] {
		o, ok := db.Base.Get(src)
		if !ok {
			continue
		}
		v, _ := o.Attr("Next")
		cur, isRef := v.(gom.Ref)
		if !isRef {
			continue
		}
		var dst gom.OID
		for _, cand := range db.Extents[1] {
			if cand != cur.OID() {
				dst = cand
				break
			}
		}
		db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
		updates++
		if ix.Quarantined() {
			break
		}
	}
	if !ix.Quarantined() {
		return nil, fmt.Errorf("faults: %d updates did not trip the injected fault", updates)
	}

	nDeg, dDeg, err := runQueries()
	if err != nil {
		return nil, err
	}
	t.AddRow("degraded", "traversal fallback (index quarantined)", dDeg.Round(10*time.Microsecond).String(), fmt.Sprint(nDeg))

	fi.Heal()
	if _, err := mgr.Repair(ix); err != nil {
		return nil, err
	}
	nRep, dRep, err := runQueries()
	if err != nil {
		return nil, err
	}
	t.AddRow("repaired", "full ASR (binary dec.)", dRep.Round(10*time.Microsecond).String(), fmt.Sprint(nRep))

	ms := mgr.Stats()
	ixSt := ix.Stats()
	fs := fi.FaultStats()
	ps := pool.Stats()
	t.Note = fmt.Sprintf(
		"degraded answers stay correct (the fallback reads the live base) but lose the index's page "+
			"locality — at this small scale in-memory traversal can even win, while on a paper-sized base "+
			"the fallback pays the full extent scan; "+
			"%d update(s) until quarantine, retries=%d rollbacks=%d, injected write faults=%d, "+
			"degraded queries=%d, write-back errors=%d",
		updates, ixSt.Retries, ixSt.Rollbacks, fs.WriteFaults, ms.DegradedQueries, ps.WriteBackErrors)
	return t, nil
}
