package asr

import (
	"context"
	"math/rand"
	"testing"

	"asr/internal/gom"
)

// Recursive schemas make the same type occur at several path positions
// (Definition 3.1 explicitly allows it: "not necessarily distinct
// types"). These tests stress the column-indexed search: one object
// appears at multiple columns, and one update touches several steps.

func partsFixture(t *testing.T, seed int64, nParts int) (*gom.ObjectBase, *gom.PathExpression, []gom.OID) {
	t.Helper()
	schema, _, err := gom.ParseSchema(`
		type Part is [Name: STRING, Sub: PartSET];
		type PartSET is {Part};
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob := gom.NewObjectBase(schema)
	rng := rand.New(rand.NewSource(seed))
	partT := schema.MustLookup("Part")
	setT := schema.MustLookup("PartSET")

	parts := make([]gom.OID, nParts)
	for i := range parts {
		o := ob.MustNew(partT)
		parts[i] = o.ID()
		ob.MustSetAttr(o.ID(), "Name", gom.String(partName(rng)))
	}
	// Wire a random DAG-ish containment: part i may contain parts with
	// larger index (occasionally creating shared subparts).
	for i, id := range parts {
		if rng.Intn(3) == 0 || i >= nParts-2 {
			continue
		}
		set := ob.MustNew(setT)
		for k := 0; k < 1+rng.Intn(3); k++ {
			child := parts[i+1+rng.Intn(nParts-i-1)]
			ob.MustInsertIntoSet(set.ID(), gom.Ref(child))
		}
		ob.MustSetAttr(id, "Sub", gom.Ref(set.ID()))
	}
	path := gom.MustResolvePath(partT, "Sub", "Sub", "Name")
	return ob, path, parts
}

func TestRecursivePathIndexBuildsAndQueries(t *testing.T) {
	ob, path, parts := partsFixture(t, 3, 20)
	m := path.Arity() - 1 // n=3, k=2 → m=5
	if m != 5 {
		t.Fatalf("arity = %d", m+1)
	}
	for _, ext := range Extensions {
		ix, err := Build(ob, path, ext, BinaryDecomposition(m), newPool())
		if err != nil {
			t.Fatalf("%v: %v", ext, err)
		}
		if err := verifyClean(ix); err != nil {
			t.Fatalf("%v: %v", ext, err)
		}
		// Results must match a naive traversal.
		for _, root := range parts[:5] {
			want := naiveForward(ob, path, root, 0, 3)
			got, err := ix.Query(context.Background(), true, 0, 3, gom.Ref(root))
			if err == ErrNotSupported {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v root %v: got %v, want %d values", ext, root, got, len(want))
			}
			for _, v := range got {
				if !want[gom.ValueString(v)] {
					t.Fatalf("%v root %v: unexpected %v", ext, root, v)
				}
			}
		}
	}
}

func TestRecursivePathMaintenance(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		ob, path, parts := partsFixture(t, seed, 16)
		m := path.Arity() - 1
		mgr := NewManager(ob, newPool())
		var ixs []*Index
		for _, ext := range Extensions {
			ix, err := mgr.CreateIndex(path, ext, Decomposition{0, 2, m})
			if err != nil {
				t.Fatal(err)
			}
			ixs = append(ixs, ix)
		}
		rng := rand.New(rand.NewSource(seed * 7))
		schema := ob.Schema()
		setT := schema.MustLookup("PartSET")
		live := func(id gom.OID) bool {
			_, ok := ob.Get(id)
			return ok
		}
		for op := 0; op < 30; op++ {
			switch rng.Intn(5) {
			case 4: // delete a part outright (dangling refs remain in sets)
				p := parts[rng.Intn(len(parts))]
				if live(p) && rng.Intn(3) == 0 {
					if err := ob.Delete(p); err != nil {
						t.Fatal(err)
					}
				}
				continue
			case 0: // rewire a part's Sub to another (or new) set
				p := parts[rng.Intn(len(parts))]
				if !live(p) {
					continue
				}
				sets := ob.Extent(setT, true)
				if len(sets) > 0 && rng.Intn(3) > 0 {
					ob.MustSetAttr(p, "Sub", gom.Ref(sets[rng.Intn(len(sets))]))
				} else {
					ob.MustSetAttr(p, "Sub", nil)
				}
			case 1: // insert an element (may create cycles in the object graph!)
				sets := ob.Extent(setT, true)
				p := parts[rng.Intn(len(parts))]
				if len(sets) > 0 && live(p) {
					s := sets[rng.Intn(len(sets))]
					ob.MustInsertIntoSet(s, gom.Ref(p))
				}
			case 2: // remove an element
				sets := ob.Extent(setT, true)
				if len(sets) > 0 {
					s := sets[rng.Intn(len(sets))]
					if o, _ := ob.Get(s); o.Len() > 0 {
						elems := o.Elements()
						ob.RemoveFromSet(s, elems[rng.Intn(len(elems))])
					}
				}
			case 3: // rename
				if p := parts[rng.Intn(len(parts))]; live(p) {
					ob.MustSetAttr(p, "Name", gom.String(partName(rng)))
				}
			}
		}
		for _, ix := range ixs {
			assertEqualsRebuild(t, ix, "recursive/"+ix.ext.String())
		}
	}
}
