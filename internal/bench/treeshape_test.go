package bench

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"asr/internal/asr"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// Physical-shape cross-validation: the cost model's ap (data pages) and
// ht (tree height above leaves) for each partition, against the actual
// B⁺-trees materialized for the same database. Three systematic
// overheads push the actual leaf count above the model's ap: the model
// drops set-object columns (§3's no-set-sharing simplification) while
// the stored rows keep them (a 2-column model partition is stored as 3
// columns); every stored column carries a 3-byte tag+length header on
// top of the 8 payload bytes; and bulk loading fills pages to 90%.
// Together that bounds actual/model below ≈4.5×; the height must match
// within one level — that is the structural claim behind eq. (19).
func TestModelTreeShapeMatchesBuiltPartitions(t *testing.T) {
	spec := gendb.Spec{
		N:    3,
		C:    []int{300, 900, 2700, 8000},
		D:    []int{280, 800, 2400},
		Fan:  []int{2, 3, 3},
		Seed: 21,
	}
	db, err := gendb.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	model := modelFor(t, spec)
	// The generated path has set columns; the model's no-set-sharing
	// simplification reads positions as columns. Compare per object-step
	// partition: binary in step space maps to column windows of width 2
	// per step via ObjectColumn.
	for _, pair := range extPairs {
		pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
		// One partition per object step: boundaries at object columns.
		var dec asr.Decomposition
		for s := 0; s <= spec.N; s++ {
			dec = append(dec, db.Path.ObjectColumn(s))
		}
		ix, err := asr.Build(db.Base, db.Path, pair.a, dec, pool)
		if err != nil {
			t.Fatalf("%v: %v", pair.a, err)
		}
		for p, pp := range ix.Partitions() {
			st, err := pp.Part.Forward().ComputeStats()
			if err != nil {
				t.Fatal(err)
			}
			predAp := model.Ap(pair.m, p, p+1)
			predHt := model.Ht(pair.m, p, p+1)
			if st.Entries == 0 || predAp == 0 {
				continue
			}
			ratio := float64(st.LeafPages) / predAp
			if ratio < 1.0/4.5 || ratio > 4.5 {
				t.Errorf("%v partition %d: actual leaf pages %d vs model ap %.0f (ratio %.2f)",
					pair.a, p, st.LeafPages, predAp, ratio)
			}
			actualHt := float64(st.Height - 1) // model's ht excludes leaves
			if actualHt < predHt-1 || actualHt > predHt+1 {
				t.Errorf("%v partition %d: actual ht %g vs model %g",
					pair.a, p, actualHt, predHt)
			}
			t.Logf("%-5v partition %d: leaves %4d (model ap %4.0f, ratio %.2f), ht %g (model %g), rows %d",
				pair.a, p, st.LeafPages, predAp, ratio, actualHt, predHt, st.Entries)
		}
	}
}

// TestGoldenTreeShape pins the stored geometry of one undecomposed full
// extension — one partition with full composite-OID keys, the layout
// prefix compression targets — after a save and a cold reopen through
// storage.Recover and asr.OpenFrom. The numbers are structural: they
// move only when the page format, the key encoding or the bulk loader's
// fill strategy changes, and such a change edits them here.
func TestGoldenTreeShape(t *testing.T) {
	spec := gendb.Spec{
		N:    3,
		C:    []int{300, 800, 1500, 3000},
		D:    []int{270, 650, 1200},
		Fan:  []int{3, 2, 2},
		Seed: 17,
	}
	pages := filepath.Join(t.TempDir(), "pages")
	man := pages + ".manifest"
	// open is one process start: a fresh ObjectBase over the recovered
	// page file and log.
	open := func() (*gom.ObjectBase, *gom.PathExpression, *storage.BufferPool, func()) {
		t.Helper()
		db, err := gendb.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		fd, w, _, err := storage.Recover(pages)
		if err != nil {
			t.Fatal(err)
		}
		pool := storage.NewBufferPool(fd, 0, storage.LRU)
		pool.AttachWAL(w)
		return db.Base, db.Path, pool, func() {
			if err := errors.Join(fd.Close(), w.Close()); err != nil {
				t.Fatal(err)
			}
		}
	}

	ob, path, pool, shut := open()
	mgr := asr.NewManager(ob, pool)
	if _, err := mgr.CreateIndex(path, asr.Full, asr.NoDecomposition(path.Arity()-1)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SaveTo(man); err != nil {
		t.Fatal(err)
	}
	shut()

	ob, _, pool, shut = open()
	defer shut()
	mgr, err := asr.OpenFrom(ob, pool, man)
	if err != nil {
		t.Fatal(err)
	}
	ix := mgr.Indexes()[0]
	if ix.Quarantined() {
		t.Fatalf("reopened index quarantined: %v", ix.QuarantineReason())
	}
	st, err := ix.Partitions()[0].Part.Forward().ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if rows := ix.TotalRows()[0]; rows != 4403 || st.Height != 3 || st.LeafPages != 72 {
		t.Errorf("rows %d, forward height %d, leaf pages %d; want 4403, 3, 72", rows, st.Height, st.LeafPages)
	}
	if got, want := st.KeysPerLeaf(), 61.15277777777778; math.Abs(got-want) > 1e-9 {
		t.Errorf("keys/leaf %.12f, want %.12f", got, want)
	}
	if got, want := float64(st.UsedBytes)/float64(st.UncompressedBytes), 0.8193098003624123; math.Abs(got-want) > 1e-9 {
		t.Errorf("stored/uncompressed %.12f, want %.12f", got, want)
	}
}
