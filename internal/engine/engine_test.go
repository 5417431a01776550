package engine

import (
	"testing"

	"asr/internal/asr"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

func testSetup(t testing.TB, spec gendb.Spec, sizes []int) (*gendb.Database, *Engine) {
	t.Helper()
	db, err := gendb.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	place, err := gendb.Place(db, pool, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return db, New(place)
}

func buildIndex(t testing.TB, db *gendb.Database, ext asr.Extension, dec asr.Decomposition) *asr.Index {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	ix, err := asr.Build(db.Base, db.Path, ext, dec, pool)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

var engineSpec = gendb.Spec{
	N:    3,
	C:    []int{50, 100, 150, 200},
	D:    []int{40, 80, 100},
	Fan:  []int{2, 2, 2},
	Seed: 11,
}

func TestForwardASRMatchesTraversal(t *testing.T) {
	db, e := testSetup(t, engineSpec, []int{200, 200, 200, 200})
	m := db.Path.Arity() - 1
	ix := buildIndex(t, db, asr.Full, asr.BinaryDecomposition(m))

	for _, start := range db.Extents[0][:20] {
		want, _, err := e.ForwardNoASR(start, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.ForwardASR(ix, start, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("start %v: ASR %d results, traversal %d", start, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("start %v: results diverge: %v vs %v", start, got, want)
			}
		}
	}
}

func TestBackwardASRMatchesExhaustiveSearch(t *testing.T) {
	db, e := testSetup(t, engineSpec, []int{200, 200, 200, 200})
	m := db.Path.Arity() - 1
	ix := buildIndex(t, db, asr.RightComplete, asr.NoDecomposition(m))

	for _, target := range db.Extents[3][:15] {
		want, _, err := e.BackwardNoASR(target, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.BackwardASR(ix, target, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("target %v: ASR %d anchors, search %d\nasr: %v\nsearch: %v",
				target, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("target %v: anchors diverge", target)
			}
		}
	}
}

func TestSupportedBackwardTouchesFewerPages(t *testing.T) {
	// The paper's headline effect: a supported backward query touches
	// orders of magnitude fewer pages than the exhaustive search.
	spec := gendb.Spec{
		N:    3,
		C:    []int{200, 400, 800, 1000},
		D:    []int{180, 350, 600},
		Fan:  []int{2, 2, 2},
		Seed: 13,
	}
	db, e := testSetup(t, spec, []int{300, 300, 300, 300})
	m := db.Path.Arity() - 1
	ix := buildIndex(t, db, asr.Canonical, asr.NoDecomposition(m))

	target := db.Extents[3][0]
	_, noSup, err := e.BackwardNoASR(target, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, sup, err := e.BackwardASR(ix, target, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sup.DistinctPages*5 >= noSup.DistinctPages {
		t.Errorf("supported bw touched %d pages vs %d unsupported — expected ≥5x win",
			sup.DistinctPages, noSup.DistinctPages)
	}
	t.Logf("backward query: no-ASR %d pages, ASR %d pages", noSup.DistinctPages, sup.DistinctPages)
}

func TestMeasurementIsColdAndRepeatable(t *testing.T) {
	db, e := testSetup(t, engineSpec, []int{200, 200, 200, 200})
	start := db.Extents[0][0]
	_, m1, err := e.ForwardNoASR(start, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := e.ForwardNoASR(start, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("measurements differ across runs: %+v vs %+v", m1, m2)
	}
	if m1.DistinctPages == 0 || m1.LogicalAccesses < m1.DistinctPages {
		t.Errorf("implausible measurement %+v", m1)
	}
}

func TestInsertWithASRMaintains(t *testing.T) {
	db, e := testSetup(t, engineSpec, []int{200, 200, 200, 200})
	mcol := db.Path.Arity() - 1
	ix := buildIndex(t, db, asr.Full, asr.BinaryDecomposition(mcol))
	maint := asr.NewMaintainer(ix)
	db.Base.AddObserver(maint)

	src := db.Extents[2][0]
	dst := db.Extents[3][len(db.Extents[3])-1]
	meas, err := e.InsertWithASR(ix, src, dst, maint)
	if err != nil {
		t.Fatal(err)
	}
	if meas.LogicalAccesses == 0 {
		t.Error("maintenance charged no page accesses")
	}
	if rep, err := ix.Verify(); err != nil || !rep.Clean() {
		t.Fatal(rep, err)
	}
	// The new edge is immediately visible through the index.
	got, _, err := e.ForwardASR(ix, src, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range got {
		if id == dst {
			found = true
		}
	}
	if !found {
		t.Errorf("inserted edge %v→%v not visible: %v", src, dst, got)
	}
}

func TestEngineErrorPaths(t *testing.T) {
	db, e := testSetup(t, engineSpec, []int{200, 200, 200, 200})
	ix := buildIndex(t, db, asr.Canonical, asr.NoDecomposition(db.Path.Arity()-1))
	maint := asr.NewMaintainer(ix)
	db.Base.AddObserver(maint)

	// Unknown source object.
	if _, err := e.InsertWithASR(ix, 999999, db.Extents[1][0], maint); err == nil {
		t.Error("unknown source accepted")
	}
	// Source at the last level has no outgoing edge.
	if _, err := e.InsertWithASR(ix, db.Extents[3][0], db.Extents[3][1], maint); err == nil {
		t.Error("last-level source accepted")
	}
	// Partial spans on canonical indexes surface ErrNotSupported.
	if _, _, err := e.ForwardASR(ix, db.Extents[0][0], 0, 2); err != asr.ErrNotSupported {
		t.Errorf("expected ErrNotSupported, got %v", err)
	}
	if _, _, err := e.BackwardASR(ix, db.Extents[2][0], 1, 2); err != asr.ErrNotSupported {
		t.Errorf("expected ErrNotSupported, got %v", err)
	}
}

func TestInsertWithASRFanOneAndFreshSet(t *testing.T) {
	// Fan-1 chains take the single-valued assignment path.
	spec := gendb.Spec{N: 2, C: []int{20, 20, 20}, D: []int{10, 10}, Fan: []int{1, 1}, Seed: 4}
	db, e := testSetup(t, spec, []int{100, 100, 100})
	ix := buildIndex(t, db, asr.Full, asr.BinaryDecomposition(db.Path.Arity()-1))
	maint := asr.NewMaintainer(ix)
	db.Base.AddObserver(maint)
	src, dst := db.Extents[0][0], db.Extents[1][0]
	if _, err := e.InsertWithASR(ix, src, dst, maint); err != nil {
		t.Fatal(err)
	}
	if rep, err := ix.Verify(); err != nil || !rep.Clean() {
		t.Fatal(rep, err)
	}
	// Fan>1 source without a set object yet: a fresh set is created.
	spec2 := gendb.Spec{N: 2, C: []int{20, 20, 20}, D: []int{1, 10}, Fan: []int{3, 2}, Seed: 4}
	db2, e2 := testSetup(t, spec2, []int{100, 100, 100})
	ix2 := buildIndex(t, db2, asr.Full, asr.NoDecomposition(db2.Path.Arity()-1))
	maint2 := asr.NewMaintainer(ix2)
	db2.Base.AddObserver(maint2)
	var bare gom.OID
	for _, id := range db2.Extents[0] {
		o, _ := db2.Base.Get(id)
		if v, _ := o.Attr("Next"); v == nil {
			bare = id
			break
		}
	}
	if bare.IsNil() {
		t.Fatal("no bare source found")
	}
	if _, err := e2.InsertWithASR(ix2, bare, db2.Extents[1][0], maint2); err != nil {
		t.Fatal(err)
	}
	if rep, err := ix2.Verify(); err != nil || !rep.Clean() {
		t.Fatal(rep, err)
	}
}
