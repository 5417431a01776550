package asr

import (
	"context"
	"math/rand"
	"testing"

	"asr/internal/gendb"
	"asr/internal/gom"
)

// Scale stress: a paper-profile-sized database (≈17k objects, ≈29k
// including set objects), indexes in all four extensions under a mixed
// decomposition, a long randomized update storm, and full consistency
// verification at the end. This is the closest thing to a soak test the
// simulator supports in-process.

func TestStressLargeDatabaseWithUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	spec := gendb.Spec{
		N:    4,
		C:    []int{100, 500, 1000, 5000, 10000},
		D:    []int{90, 400, 800, 2000},
		Fan:  []int{2, 2, 3, 4},
		Seed: 2024,
	}
	db, err := gendb.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	mcol := db.Path.Arity() - 1

	decs := map[Extension]Decomposition{
		Canonical:     NoDecomposition(mcol),
		Full:          BinaryDecomposition(mcol),
		LeftComplete:  {0, 3, mcol},
		RightComplete: {0, 5, mcol},
	}
	ixs := map[Extension]*Index{}
	for ext, dec := range decs {
		ix, err := Build(db.Base, db.Path, ext, dec, newPool())
		if err != nil {
			t.Fatalf("%v: %v", ext, err)
		}
		db.Base.AddObserver(NewMaintainer(ix))
		ixs[ext] = ix
	}

	rng := rand.New(rand.NewSource(99))
	setType := func(lvl int) *gom.Type {
		typ, ok := db.Schema.Lookup(db.Types[lvl].Name() + "SET")
		if !ok {
			return nil
		}
		return typ
	}
	for op := 0; op < 300; op++ {
		lvl := rng.Intn(spec.N)
		src := db.Extents[lvl][rng.Intn(len(db.Extents[lvl]))]
		o, _ := db.Base.Get(src)
		v, _ := o.Attr("Next")
		switch rng.Intn(3) {
		case 0: // insert into an existing set / create one
			dst := db.Extents[lvl+1][rng.Intn(len(db.Extents[lvl+1]))]
			if spec.Fan[lvl] == 1 {
				db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
				continue
			}
			var setID gom.OID
			if v == nil {
				st := setType(lvl + 1)
				if st == nil {
					continue
				}
				setObj := db.Base.MustNew(st)
				setID = setObj.ID()
				db.Base.MustSetAttr(src, "Next", gom.Ref(setID))
			} else {
				setID = v.(gom.Ref).OID()
			}
			db.Base.MustInsertIntoSet(setID, gom.Ref(dst))
		case 1: // remove a random element
			if v == nil || spec.Fan[lvl] == 1 {
				continue
			}
			setID := v.(gom.Ref).OID()
			so, ok := db.Base.Get(setID)
			if !ok || so.Len() == 0 {
				continue
			}
			elems := so.Elements()
			db.Base.RemoveFromSet(setID, elems[rng.Intn(len(elems))])
		case 2: // null out the attribute
			if v != nil && rng.Intn(4) == 0 {
				db.Base.MustSetAttr(src, "Next", nil)
			}
		}
	}

	for ext, ix := range ixs {
		if err := verifyClean(ix); err != nil {
			t.Fatalf("%v after storm: %v", ext, err)
		}
	}

	// Spot-check queries against naive traversal post-storm.
	for _, start := range db.Extents[0][:10] {
		want := naiveForward(db.Base, db.Path, start, 0, 4)
		got, err := ixs[Full].Query(context.Background(), true, 0, 4, gom.Ref(start))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("start %v: full index %d results, traversal %d", start, len(got), len(want))
		}
		for _, v := range got {
			if !want[gom.ValueString(v)] {
				t.Fatalf("start %v: unexpected %v", start, v)
			}
		}
	}
	t.Logf("storm complete: %d live objects, full index rows %v",
		db.Base.Count(), ixs[Full].TotalRows())
}
