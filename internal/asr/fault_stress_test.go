package asr

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asr/internal/fault"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// Fault-injection stress: a mutation storm drives maintenance over a
// bounded pool whose device fails writes probabilistically, while
// reader goroutines hammer the index with (context-bounded) queries.
// Run under -race this exercises the locking of the transactional
// rollback path against concurrent readers. Afterwards the device is
// healed, the index repaired if needed, and full consistency checked.
func TestStressMaintenanceUnderInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault stress skipped in -short mode")
	}
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{40, 60, 60, 60},
		D:    []int{38, 55, 55},
		Fan:  []int{1, 2, 1},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk(256)
	fi := storage.NewFaultInjector(disk, fault.New(7))
	pool := storage.NewBufferPool(fi, 16, storage.LRU)
	mcol := db.Path.Arity() - 1
	ix, err := Build(db.Base, db.Path, Full, BinaryDecomposition(mcol), pool)
	if err != nil {
		t.Fatal(err)
	}
	mt := NewMaintainer(ix)
	db.Base.AddObserver(mt)

	// Readers: query concurrently with the storm; a quarantined index
	// answering ErrQuarantined and cancelled contexts are both fine —
	// what must not happen is a race, a panic, or a wrong row.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				start := db.Extents[0][rng.Intn(len(db.Extents[0]))]
				_, _ = ix.Query(ctx, true, 0, db.Path.Len(), gom.Ref(start))
				cancel()
				reads.Add(1)
			}
		}(int64(w) + 100)
	}

	// Storm: single mutator (the maintenance single-writer rule) with
	// probabilistic transient write faults active. Retries absorb most;
	// an unlucky streak quarantines the index — heal, repair, resume.
	fi.FailProbabilistically(0, 0.3)
	rng := rand.New(rand.NewSource(99))
	quarantines := 0
	for op := 0; op < 200; op++ {
		lvl := rng.Intn(3)
		src := db.Extents[lvl][rng.Intn(len(db.Extents[lvl]))]
		o, _ := db.Base.Get(src)
		v, _ := o.Attr("Next")
		if lvl == 1 { // set-valued level
			if v == nil {
				continue
			}
			setID := v.(gom.Ref).OID()
			so, ok := db.Base.Get(setID)
			if !ok {
				continue
			}
			dst := db.Extents[lvl+1][rng.Intn(len(db.Extents[lvl+1]))]
			if so.Len() > 0 && rng.Intn(2) == 0 {
				elems := so.Elements()
				db.Base.RemoveFromSet(setID, elems[rng.Intn(len(elems))])
			} else {
				db.Base.MustInsertIntoSet(setID, gom.Ref(dst))
			}
		} else {
			dst := db.Extents[lvl+1][rng.Intn(len(db.Extents[lvl+1]))]
			db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
		}
		if ix.Quarantined() {
			quarantines++
			fi.FailProbabilistically(0, 0) // heal: stop injecting
			if _, err := ix.Repair(); err != nil {
				t.Fatalf("op %d: repair: %v", op, err)
			}
			fi.FailProbabilistically(0, 0.3)
		}
	}
	fi.FailProbabilistically(0, 0)
	close(stop)
	wg.Wait()

	if ix.Quarantined() {
		if _, err := ix.Repair(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mt.Err(); err != nil {
		t.Fatalf("maintainer error after storm + repair: %v", err)
	}
	if err := verifyClean(ix); err != nil {
		t.Fatalf("inconsistent after fault storm: %v", err)
	}
	// The surviving trees must also flush cleanly to the healed device.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, start := range db.Extents[0][:10] {
		want := naiveForward(db.Base, db.Path, start, 0, db.Path.Len())
		got, err := ix.Query(context.Background(), true, 0, db.Path.Len(), gom.Ref(start))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("start %v: %d results, traversal %d", start, len(got), len(want))
		}
	}
	st := ix.Stats()
	t.Logf("storm done: %d reads, %d retries, %d rollbacks, %d quarantine/repair cycles, faults=%+v",
		reads.Load(), st.Retries, st.Rollbacks, quarantines, fi.FaultStats())
}
