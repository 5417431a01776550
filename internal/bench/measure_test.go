package bench

import (
	"context"
	"errors"
	"slices"
	"testing"

	"asr/internal/asr"
	"asr/internal/costmodel"
	"asr/internal/gendb"
	"asr/internal/gom"
)

// measureSpec has set-valued steps at every level.
var measureSpec = gendb.Spec{
	N:    3,
	C:    []int{50, 100, 150, 200},
	D:    []int{40, 80, 100},
	Fan:  []int{2, 2, 2},
	Seed: 11,
}

var measureSizes = []float64{200, 200, 200, 200}

func generate(t *testing.T, spec gendb.Spec) *gendb.Database {
	t.Helper()
	db, err := gendb.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func placed(t *testing.T, db *gendb.Database, sizes []float64) *layout {
	t.Helper()
	l, err := newLayout(db, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func buildIndex(t *testing.T, db *gendb.Database, ext asr.Extension, dec asr.Decomposition) *asr.Index {
	t.Helper()
	ix, err := asr.Build(db.Base, db.Path, ext, dec, newIndexPool())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// maintained builds ix over db and registers its maintainer.
func maintained(t *testing.T, db *gendb.Database, ext asr.Extension, dec asr.Decomposition) (*asr.Index, *asr.Maintainer) {
	t.Helper()
	ix := buildIndex(t, db, ext, dec)
	maint := asr.NewMaintainer(ix)
	db.Base.AddObserver(maint)
	return ix, maint
}

func indexAnswer(t *testing.T, ix *asr.Index, fwd bool, i, j int, v gom.OID) []gom.OID {
	t.Helper()
	vals, err := ix.Query(context.Background(), fwd, i, j, gom.Ref(v))
	if err != nil {
		t.Fatal(err)
	}
	return asr.OIDsOf(vals)
}

func verify(t *testing.T, ix *asr.Index) {
	t.Helper()
	if rep, err := ix.Verify(); err != nil || !rep.Clean() {
		t.Fatal(rep, err)
	}
}

// TestForwardASRMatchesTraversal compares the index's forward answers
// with the object traversal a Manager without indexes runs.
func TestForwardASRMatchesTraversal(t *testing.T) {
	db := generate(t, measureSpec)
	ix := buildIndex(t, db, asr.Full, asr.BinaryDecomposition(db.Path.Arity()-1))
	noIndex := asr.NewManager(db.Base, newIndexPool())
	for _, start := range db.Extents[0][:20] {
		vals, err := noIndex.QueryForward(db.Path, 0, 3, gom.Ref(start))
		if err != nil {
			t.Fatal(err)
		}
		want := asr.OIDsOf(vals)
		if got := indexAnswer(t, ix, true, 0, 3, start); !slices.Equal(got, want) {
			t.Fatalf("start %v: ASR %v, traversal %v", start, got, want)
		}
	}
	if st := noIndex.Stats(); st.Traversals != 20 {
		t.Errorf("%d traversals, want 20", st.Traversals)
	}
}

// TestBackwardASRMatchesExhaustiveSearch compares the index's backward
// answers with the exhaustive search a Manager without indexes runs.
func TestBackwardASRMatchesExhaustiveSearch(t *testing.T) {
	db := generate(t, measureSpec)
	ix := buildIndex(t, db, asr.RightComplete, asr.NoDecomposition(db.Path.Arity()-1))
	noIndex := asr.NewManager(db.Base, newIndexPool())
	for _, target := range db.Extents[3][:15] {
		vals, err := noIndex.QueryBackward(db.Path, 0, 3, gom.Ref(target))
		if err != nil {
			t.Fatal(err)
		}
		want := asr.OIDsOf(vals)
		if got := indexAnswer(t, ix, false, 0, 3, target); !slices.Equal(got, want) {
			t.Fatalf("target %v: ASR %v, search %v", target, got, want)
		}
	}
	if st := noIndex.Stats(); st.ExhaustiveSearches != 15 {
		t.Errorf("%d exhaustive searches, want 15", st.ExhaustiveSearches)
	}
}

func TestSupportedBackwardTouchesFewerPages(t *testing.T) {
	// The paper's headline effect: a supported backward query touches
	// orders of magnitude fewer pages than the exhaustive search.
	db := generate(t, gendb.Spec{
		N:    3,
		C:    []int{200, 400, 800, 1000},
		D:    []int{180, 350, 600},
		Fan:  []int{2, 2, 2},
		Seed: 13,
	})
	objects := placed(t, db, []float64{300, 300, 300, 300})
	ix := buildIndex(t, db, asr.Canonical, asr.NoDecomposition(db.Path.Arity()-1))
	noSup := objects.search(0, 3)
	sup, err := indexQuery(ix, false, 0, 3, db.Extents[3][0])
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
	db := generate(t, measureSpec)
	objects := placed(t, db, measureSizes)
	ix := buildIndex(t, db, asr.Full, asr.BinaryDecomposition(db.Path.Arity()-1))
	start := db.Extents[0][0]
	ops := map[string]func() (measurement, error){
		"traversal": func() (measurement, error) { return objects.traverse(0, 3, gom.Ref(start)), nil },
		"search":    func() (measurement, error) { return objects.search(0, 3), nil },
		"index":     func() (measurement, error) { return indexQuery(ix, true, 0, 3, start) },
	}
	for name, op := range ops {
		m1, err := op()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := op()
		if err != nil {
			t.Fatal(err)
		}
		if m1 != m2 {
			t.Errorf("%s: measurements differ across runs: %+v vs %+v", name, m1, m2)
		}
		if m1.DistinctPages == 0 || m1.LogicalAccesses < m1.DistinctPages {
			t.Errorf("%s: implausible measurement %+v", name, m1)
		}
	}
}

// TestLayoutPagesMatchModel checks that level i fills op_i pages of its
// own, the count the cost model derives for the same profile.
func TestLayoutPagesMatchModel(t *testing.T) {
	db := generate(t, simSpec)
	p := simProfile()
	objects := placed(t, db, p.Size)
	model, err := costmodel.New(sys(), p)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[int]int{} // page → level
	for i, ext := range db.Extents {
		pages := map[int]bool{}
		for _, id := range ext {
			pg := objects.page[id]
			if lvl, ok := owner[pg]; ok && lvl != i {
				t.Fatalf("page %d holds objects of levels %d and %d", pg, lvl, i)
			}
			owner[pg] = i
			pages[pg] = true
		}
		if got, want := float64(len(pages)), model.Op(i); got != want {
			t.Errorf("level %d fills %g pages, model op_%d = %g", i, got, i, want)
		}
	}
}

func TestInsertWithASRMaintains(t *testing.T) {
	db := generate(t, measureSpec)
	ix, maint := maintained(t, db, asr.Full, asr.BinaryDecomposition(db.Path.Arity()-1))
	src := db.Extents[2][0]
	dst := db.Extents[3][len(db.Extents[3])-1]
	meas, err := insert(db, ix, maint, 2, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if meas.LogicalAccesses <= 1 {
		t.Errorf("maintenance charged no index page accesses: %+v", meas)
	}
	verify(t, ix)
	// The new edge is immediately visible through the index.
	if got := indexAnswer(t, ix, true, 2, 3, src); !slices.Contains(got, dst) {
		t.Errorf("inserted edge %v→%v not visible: %v", src, dst, got)
	}
}

func TestInsertWithASRFanOneAndFreshSet(t *testing.T) {
	// Fan-1 chains take the single-valued assignment path.
	db := generate(t, gendb.Spec{N: 2, C: []int{20, 20, 20}, D: []int{10, 10}, Fan: []int{1, 1}, Seed: 4})
	ix, maint := maintained(t, db, asr.Full, asr.BinaryDecomposition(db.Path.Arity()-1))
	src, dst := db.Extents[0][0], db.Extents[1][0]
	if _, err := insert(db, ix, maint, 0, src, dst); err != nil {
		t.Fatal(err)
	}
	verify(t, ix)
	if got := indexAnswer(t, ix, true, 0, 1, src); !slices.Equal(got, []gom.OID{dst}) {
		t.Errorf("fan 1: %v reaches %v, want [%v]", src, got, dst)
	}

	// Fan>1 source without a set object yet: a fresh set is created.
	db = generate(t, gendb.Spec{N: 2, C: []int{20, 20, 20}, D: []int{1, 10}, Fan: []int{3, 2}, Seed: 4})
	ix, maint = maintained(t, db, asr.Full, asr.NoDecomposition(db.Path.Arity()-1))
	var bare gom.OID
	for _, id := range db.Extents[0] {
		o, _ := db.Base.Get(id)
		if v, _ := o.Attr("Next"); v == nil {
			bare = id
			break
		}
	}
	if bare.IsNil() {
		t.Fatal("no bare source found")
	}
	dst = db.Extents[1][0]
	if _, err := insert(db, ix, maint, 0, bare, dst); err != nil {
		t.Fatal(err)
	}
	verify(t, ix)
	if got := indexAnswer(t, ix, true, 0, 1, bare); !slices.Equal(got, []gom.OID{dst}) {
		t.Errorf("fresh set: %v reaches %v, want [%v]", bare, got, dst)
	}
}

func TestMeasureErrorPaths(t *testing.T) {
	db := generate(t, measureSpec)
	ix, maint := maintained(t, db, asr.Canonical, asr.NoDecomposition(db.Path.Arity()-1))
	if _, err := insert(db, ix, maint, 0, 999999, db.Extents[1][0]); err == nil {
		t.Error("unknown source accepted")
	}
	// Partial spans on canonical indexes surface ErrNotSupported, which
	// the simulations answer by traversal or search instead.
	if _, err := indexQuery(ix, true, 0, 2, db.Extents[0][0]); !errors.Is(err, asr.ErrNotSupported) {
		t.Errorf("expected ErrNotSupported, got %v", err)
	}
	if _, err := indexQuery(ix, false, 1, 2, db.Extents[2][0]); !errors.Is(err, asr.ErrNotSupported) {
		t.Errorf("expected ErrNotSupported, got %v", err)
	}
	// An object larger than a page, or of no size, cannot be placed.
	for _, size := range []float64{5000, 0} {
		if _, err := newLayout(db, []float64{size, 200, 200, 200}); err == nil {
			t.Errorf("size %g placed", size)
		}
	}
	if _, err := newLayout(db, measureSizes[:3]); err == nil {
		t.Error("three sizes placed four levels")
	}
}
