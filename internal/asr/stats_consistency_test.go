package asr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"asr/internal/fault"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// Snapshot-consistency stress (run under -race): readers snapshot
// Manager.Stats while query goroutines route through the manager and a
// single mutator drives maintenance over a faulty device — rollbacks,
// retries and quarantines all happen mid-snapshot. Every snapshot must
// satisfy the documented invariants (no torn reads like Quarantined
// with Rollbacks = 0), and successive snapshots must be monotonic.
func TestManagerStatsConsistentUnderConcurrency(t *testing.T) {
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{30, 40, 40, 40},
		D:    []int{28, 36, 36},
		Fan:  []int{1, 2, 1},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk(256)
	fi := storage.NewFaultInjector(disk, fault.New(11))
	pool := storage.NewBufferPool(fi, 16, storage.LRU)
	mgr := NewManager(db.Base, pool)
	ix, err := mgr.CreateIndex(db.Path, Full, BinaryDecomposition(db.Path.Arity()-1))
	if err != nil {
		t.Fatal(err)
	}

	var (
		failMu sync.Mutex
		fails  []string
	)
	record := func(format string, args ...any) {
		failMu.Lock()
		defer failMu.Unlock()
		if len(fails) < 8 {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: snapshot invariants + monotonicity against the previous
	// snapshot. ResetStats is never called during the run, so every
	// counter must be non-decreasing.
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev ManagerStats
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := mgr.Stats()
				if sum := st.IndexHits + st.Traversals + st.ExhaustiveSearches; sum > st.Queries {
					record("categories %d exceed queries %d", sum, st.Queries)
				}
				if st.DegradedQueries > st.Traversals+st.ExhaustiveSearches {
					record("degraded %d exceed fallbacks %d+%d",
						st.DegradedQueries, st.Traversals, st.ExhaustiveSearches)
				}
				for _, ixs := range st.Indexes {
					if ixs.Quarantined && ixs.MaintenanceOK {
						record("index %s quarantined yet maintenance-ok", ixs.Path)
					}
					if ixs.Quarantined && ixs.Rollbacks == 0 {
						record("index %s quarantined with zero rollbacks", ixs.Path)
					}
					if ixs.Retries > ixs.Rollbacks {
						record("index %s retries %d exceed rollbacks %d",
							ixs.Path, ixs.Retries, ixs.Rollbacks)
					}
				}
				if st.Queries < prev.Queries || st.IndexHits < prev.IndexHits ||
					st.Traversals < prev.Traversals ||
					st.ExhaustiveSearches < prev.ExhaustiveSearches ||
					st.DegradedQueries < prev.DegradedQueries {
					record("routing counters went backwards: %+v after %+v", st, prev)
				}
				if len(st.Indexes) == len(prev.Indexes) {
					for i := range st.Indexes {
						c, p := st.Indexes[i], prev.Indexes[i]
						if c.Queries < p.Queries || c.RowsScanned < p.RowsScanned ||
							c.Retries < p.Retries || c.Rollbacks < p.Rollbacks {
							record("index counters went backwards: %+v after %+v", c, p)
						}
					}
				}
				prev = st
			}
		}()
	}

	// Query load: routed forward and backward queries; while the index
	// is quarantined these become degraded traversals / exhaustive
	// searches, exercising the category-before-degraded writer order.
	for qw := 0; qw < 2; qw++ {
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
				start := db.Extents[0][rng.Intn(len(db.Extents[0]))]
				if rng.Intn(2) == 0 {
					_, _ = mgr.QueryForward(db.Path, 0, db.Path.Len(), gom.Ref(start))
				} else {
					end := db.Extents[3][rng.Intn(len(db.Extents[3]))]
					_, _ = mgr.QueryBackward(db.Path, 0, db.Path.Len(), gom.Ref(end))
				}
			}
		}(int64(qw) + 42)
	}

	// Single mutator: probabilistic write faults make maintenance roll
	// back, retry, and eventually quarantine; heal + Repair and resume.
	fi.FailProbabilistically(0, 0.3)
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 150; op++ {
		lvl := rng.Intn(3)
		src := db.Extents[lvl][rng.Intn(len(db.Extents[lvl]))]
		dst := db.Extents[lvl+1][rng.Intn(len(db.Extents[lvl+1]))]
		o, _ := db.Base.Get(src)
		v, _ := o.Attr("Next")
		if lvl == 1 { // set-valued level
			if v == nil {
				continue
			}
			setID := v.(gom.Ref).OID()
			if _, ok := db.Base.Get(setID); !ok {
				continue
			}
			db.Base.MustInsertIntoSet(setID, gom.Ref(dst))
		} else {
			db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
		}
		if ix.Quarantined() {
			// Let readers observe the quarantined state mid-run before
			// the repair clears it.
			time.Sleep(200 * time.Microsecond)
			fi.FailProbabilistically(0, 0)
			if _, err := mgr.Repair(ix); err != nil {
				t.Fatalf("op %d: repair: %v", op, err)
			}
			fi.FailProbabilistically(0, 0.3)
		}
	}
	fi.FailProbabilistically(0, 0)
	close(stop)
	wg.Wait()

	for _, f := range fails {
		t.Error(f)
	}
	st := mgr.Stats()
	if st.Queries == 0 {
		t.Error("no queries routed — the stress did not exercise the counters")
	}
	if len(st.Indexes) != 1 || st.Indexes[0].Rollbacks == 0 {
		t.Logf("note: fault schedule produced no rollbacks (stats %+v)", st)
	}
}

// Every numeric field of every stats snapshot must zero after
// ResetStats; reflecting over the structs means a counter added later
// cannot be silently missed — an unclassified field fails the test
// until it is either reset or explicitly exempted here.
func TestResetStatsZeroesEveryCounterField(t *testing.T) {
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{20, 25, 25, 25},
		D:    []int{18, 22, 22},
		Fan:  []int{1, 2, 1},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk(256)
	fi := storage.NewFaultInjector(disk, fault.New(3))
	pool := storage.NewBufferPool(fi, 16, storage.LRU)
	mgr := NewManager(db.Base, pool)
	ix, err := mgr.CreateIndex(db.Path, Full, BinaryDecomposition(db.Path.Arity()-1))
	if err != nil {
		t.Fatal(err)
	}

	// Drive every counter class: routed index hits, fallback queries on
	// an unindexed span, and fault-driven rollbacks/retries.
	start := db.Extents[0][0]
	end := db.Extents[3][0]
	if _, err := mgr.QueryForward(db.Path, 0, db.Path.Len(), gom.Ref(start)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.QueryBackward(db.Path, 0, db.Path.Len(), gom.Ref(end)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.QueryForward(db.Path, 1, 2, gom.Ref(db.Extents[1][0])); err != nil {
		t.Fatal(err)
	}
	// Every device write faults: rollback, retries, quarantine. A write
	// happens only when an eviction writes a dirty page back, so retarget
	// until the pool runs out of clean victims — a bounded number of
	// updates, each dirtying only the pages its net change reaches.
	fi.FailProbabilistically(0, 1.0)
	for k := 0; k < len(db.Extents[0]) && !ix.Quarantined(); k++ {
		db.Base.MustSetAttr(db.Extents[0][k], "Next", gom.Ref(db.Extents[1][(k+1)%len(db.Extents[1])]))
	}
	fi.FailProbabilistically(0, 0)
	if _, err := mgr.QueryForward(db.Path, 0, db.Path.Len(), gom.Ref(start)); err != nil {
		t.Fatal(err) // degraded traversal while quarantined
	}

	pre := mgr.Stats()
	if pre.Queries == 0 || pre.IndexHits == 0 || pre.Traversals == 0 ||
		pre.DegradedQueries == 0 {
		t.Fatalf("setup failed to exercise routing counters: %+v", pre)
	}
	if len(pre.Indexes) != 1 || pre.Indexes[0].Rollbacks == 0 || !pre.Indexes[0].Quarantined {
		t.Fatalf("setup failed to exercise maintenance counters: %+v", pre.Indexes)
	}

	mgr.ResetStats()

	// Non-counter fields: identity and state survive a stats reset by
	// design (the quarantine flag is only cleared by Repair).
	exempt := map[string]bool{
		"Indexes": true,                           // recursed into below
		"Path":    true, "Ext": true, "Dec": true, // identity
		"Rows":          true,                      // stored rows, not activity
		"MaintenanceOK": true, "Quarantined": true, // state
	}
	post := mgr.Stats()
	assertCountersZero(t, reflect.ValueOf(post), "ManagerStats", exempt)
	for _, ixs := range post.Indexes {
		assertCountersZero(t, reflect.ValueOf(ixs), "ManagedIndexStats", exempt)
	}
	ixPost := ix.Stats()
	assertCountersZero(t, reflect.ValueOf(ixPost), "IndexStats", exempt)
	if !ixPost.Quarantined {
		t.Error("ResetStats cleared the quarantine flag — that is Repair's job")
	}
}

// assertCountersZero walks a stats struct: every field that is not
// explicitly exempted must be an unsigned counter, and must be zero.
func assertCountersZero(t *testing.T, v reflect.Value, name string, exempt map[string]bool) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if exempt[f.Name] {
			continue
		}
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("%s.%s: unclassified field of kind %s — reset it in ResetStats or exempt it",
				name, f.Name, f.Type.Kind())
			continue
		}
		if got := v.Field(i).Uint(); got != 0 {
			t.Errorf("%s.%s = %d after ResetStats, want 0", name, f.Name, got)
		}
	}
}
