package asr

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"asr/internal/gendb"
	"asr/internal/gom"
)

// Concurrency stress: many reader goroutines issue forward/backward
// queries (with and without a context) through a Manager, and straight
// to a second index, while a single writer goroutine mutates the object
// base, driving the Manager's maintenance of both in one step per
// mutation. Run with -race; the assertions at the end
// verify the index survived the interleaving consistent and that the
// observability counters moved.

func TestConcurrentReadersWithWriter(t *testing.T) {
	spec := gendb.Spec{
		N:    4,
		C:    []int{40, 100, 200, 400, 800},
		D:    []int{35, 80, 150, 300},
		Fan:  []int{2, 2, 2, 2},
		Seed: 7,
	}
	db, err := gendb.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	mcol := db.Path.Arity() - 1
	mgr := NewManager(db.Base, newPool())
	ix, err := mgr.CreateIndex(db.Path, Canonical, NoDecomposition(mcol))
	if err != nil {
		t.Fatal(err)
	}
	full, err := mgr.CreateIndex(db.Path, Full, BinaryDecomposition(mcol))
	if err != nil {
		t.Fatal(err)
	}

	// Reachable backward targets, so reader queries return real rows.
	targets, err := mgr.QueryForward(db.Path, 0, db.Path.Len(),
		refsOf(db.Extents[0][:10])...)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no reachable targets")
	}
	mgr.ResetStats()

	const (
		readers    = 6
		iterations = 40
		mutations  = 150
	)
	errc := make(chan error, readers)
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iterations; it++ {
				start := gom.Ref(db.Extents[0][rng.Intn(len(db.Extents[0]))])
				end := targets[rng.Intn(len(targets))]
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = mgr.QueryForward(db.Path, 0, db.Path.Len(), start)
				case 3:
					_, err = full.Query(context.Background(), false, 0, db.Path.Len(), end)
				case 1:
					_, err = mgr.QueryBackward(db.Path, 0, db.Path.Len(), end)
				default:
					_, err = mgr.QueryBackwardCtx(context.Background(), db.Path, 0, db.Path.Len(), 1, end)
				}
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}(int64(1000 + r))
	}

	// Single writer: the storm from TestStressLargeDatabaseWithUpdates,
	// scaled down, racing against the readers above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for op := 0; op < mutations; op++ {
			lvl := rng.Intn(spec.N)
			src := db.Extents[lvl][rng.Intn(len(db.Extents[lvl]))]
			o, _ := db.Base.Get(src)
			v, _ := o.Attr("Next")
			switch rng.Intn(3) {
			case 0:
				dst := db.Extents[lvl+1][rng.Intn(len(db.Extents[lvl+1]))]
				var setID gom.OID
				if v == nil {
					st, ok := db.Schema.Lookup(db.Types[lvl+1].Name() + "SET")
					if !ok {
						continue
					}
					setObj := db.Base.MustNew(st)
					setID = setObj.ID()
					db.Base.MustSetAttr(src, "Next", gom.Ref(setID))
				} else {
					setID = v.(gom.Ref).OID()
				}
				db.Base.MustInsertIntoSet(setID, gom.Ref(dst))
			case 1:
				if v == nil {
					continue
				}
				setID := v.(gom.Ref).OID()
				so, ok := db.Base.Get(setID)
				if !ok || so.Len() == 0 {
					continue
				}
				elems := so.Elements()
				db.Base.RemoveFromSet(setID, elems[rng.Intn(len(elems))])
			case 2:
				if v != nil && rng.Intn(4) == 0 {
					db.Base.MustSetAttr(src, "Next", nil)
				}
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("reader failed: %v", err)
	default:
	}

	if err := mgr.Healthy(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*Index{ix, full} {
		if err := verifyClean(ix); err != nil {
			t.Fatalf("%s inconsistent after concurrent storm: %v", ix, err)
		}
	}

	// Post-storm queries must agree with naive traversal.
	for _, start := range db.Extents[0][:10] {
		want := naiveForward(db.Base, db.Path, start, 0, db.Path.Len())
		got, err := mgr.QueryForward(db.Path, 0, db.Path.Len(), gom.Ref(start))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("start %v: index %d results, traversal %d", start, len(got), len(want))
		}
		for _, v := range got {
			if !want[gom.ValueString(v)] {
				t.Fatalf("start %v: unexpected %v", start, v)
			}
		}
	}

	st := mgr.Stats()
	if st.Queries == 0 || st.IndexHits == 0 {
		t.Fatalf("stats did not move: %+v", st)
	}
	if len(st.Indexes) != 2 || st.Indexes[0].Queries+st.Indexes[1].Queries == 0 || !st.Indexes[0].MaintenanceOK || !st.Indexes[1].MaintenanceOK {
		t.Fatalf("index stats did not move: %+v", st.Indexes)
	}
	t.Logf("concurrent storm complete: %+v", st)
}

func refsOf(ids []gom.OID) []gom.Value {
	out := make([]gom.Value, len(ids))
	for i, id := range ids {
		out[i] = gom.Ref(id)
	}
	return out
}
