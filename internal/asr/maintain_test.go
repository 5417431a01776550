package asr

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"asr/internal/gom"
	"asr/internal/paperdb"
)

// verifyClean fails unless Verify finds every partition's stored rows
// and reference counts equal to the extension recomputed from the
// object base.
func verifyClean(ix *Index) error {
	rep, err := ix.Verify()
	if err == nil && !rep.Clean() {
		err = fmt.Errorf("%s", rep)
	}
	return err
}

// assertEqualsRebuild verifies that the incrementally maintained index
// holds exactly the rows a from-scratch rebuild would hold.
func assertEqualsRebuild(t *testing.T, ix *Index, label string) {
	t.Helper()
	if err := verifyClean(ix); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh, err := Build(ix.ob, ix.path, ix.ext, ix.dec, newPool())
	if err != nil {
		t.Fatalf("%s: rebuild: %v", label, err)
	}
	for i := range ix.parts {
		got, err := ix.parts[i].Part.AsRelation(colNamesN(ix.parts[i].Part.Arity()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.parts[i].Part.AsRelation(colNamesN(fresh.parts[i].Part.Arity()))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: partition %d diverges from rebuild\nmaintained:\n%v\nrebuilt:\n%v",
				label, i, got, want)
		}
	}
}

func colNamesN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A' + i))
	}
	return out
}

func TestMaintainInsertIntoSetPaperExample(t *testing.T) {
	// The paper's characteristic update ins_i (§6): insert an object into
	// a set-valued attribute, here a new Product into Auto's ProdSET.
	for _, ext := range Extensions {
		c := paperdb.BuildCompany()
		ix, err := NewManager(c.Base, newPool()).CreateIndex(c.Path, ext, BinaryDecomposition(5))
		if err != nil {
			t.Fatal(err)
		}

		// Sausage (previously unreachable from any division) joins Auto's
		// product set: the right-complete partial path through Sausage
		// must become a complete path.
		c.Base.MustInsertIntoSet(c.ProdSetAuto, gom.Ref(c.ProdSausage))
		if ix.QuarantineReason() != nil {
			t.Fatalf("%v: %v", ext, ix.QuarantineReason())
		}
		assertEqualsRebuild(t, ix, ext.String()+"/ins")

		divs, err := ix.Query(context.Background(), false, 0, 3, gom.String("Pepper"))
		if err != nil {
			t.Fatalf("%v: %v", ext, err)
		}
		if got := OIDsOf(divs); len(got) != 1 || got[0] != c.DivAuto {
			t.Errorf("%v: after ins, bw(Pepper) = %v, want [Auto]", ext, got)
		}

		// And remove it again: back to the original state.
		if err := c.Base.RemoveFromSet(c.ProdSetAuto, gom.Ref(c.ProdSausage)); err != nil {
			t.Fatal(err)
		}
		if ix.QuarantineReason() != nil {
			t.Fatalf("%v: %v", ext, ix.QuarantineReason())
		}
		assertEqualsRebuild(t, ix, ext.String()+"/rem")
	}
}

func TestMaintainAttributeAssignment(t *testing.T) {
	for _, ext := range Extensions {
		c := paperdb.BuildCompany()
		ix, err := NewManager(c.Base, newPool()).CreateIndex(c.Path, ext, Decomposition{0, 2, 5})
		if err != nil {
			t.Fatal(err)
		}

		// Rename Door: the VALUE column changes.
		c.Base.MustSetAttr(c.PartDoor, "Name", gom.String("Hatch"))
		assertEqualsRebuild(t, ix, ext.String()+"/rename")

		// MBTrak gains a Composition (previously NULL): left-dead-end rows
		// must extend.
		c.Base.MustSetAttr(c.ProdMBTrak, "Composition", gom.Ref(c.PartsSausage))
		assertEqualsRebuild(t, ix, ext.String()+"/gain-composition")

		// 560SEC's Composition moves to the previously-unreferenced
		// PartsExtra set: set-object element edges must follow the
		// reference.
		c.Base.MustSetAttr(c.Prod560SEC, "Composition", gom.Ref(c.PartsExtra))
		assertEqualsRebuild(t, ix, ext.String()+"/move-composition")

		// And Composition set to NULL: rows truncate.
		c.Base.MustSetAttr(c.Prod560SEC, "Composition", nil)
		assertEqualsRebuild(t, ix, ext.String()+"/null-composition")

		if ix.QuarantineReason() != nil {
			t.Fatalf("%v: %v", ext, ix.QuarantineReason())
		}
	}
}

func TestMaintainObjectDeletion(t *testing.T) {
	for _, ext := range Extensions {
		c := paperdb.BuildCompany()
		ix, err := NewManager(c.Base, newPool()).CreateIndex(c.Path, ext, BinaryDecomposition(5))
		if err != nil {
			t.Fatal(err)
		}

		// Delete the 560SEC product: Auto and Truck lose their complete
		// paths.
		if err := c.Base.Delete(c.Prod560SEC); err != nil {
			t.Fatal(err)
		}
		if ix.QuarantineReason() != nil {
			t.Fatalf("%v: %v", ext, ix.QuarantineReason())
		}
		assertEqualsRebuild(t, ix, ext.String()+"/delete-product")

		divs, err := ix.Query(context.Background(), false, 0, 3, gom.String("Door"))
		if err != nil {
			t.Fatal(err)
		}
		if got := OIDsOf(divs); len(got) != 0 {
			t.Errorf("%v: after delete, bw(Door) = %v, want none", ext, got)
		}
	}
}

// Note: assertEqualsRebuild rebuilds against the post-delete object base,
// whose aux relations skip deleted objects, so this validates the
// maintenance's cascade logic end to end.

func TestMaintainRandomUpdateSequences(t *testing.T) {
	// The central maintenance property: after an arbitrary update
	// sequence, the incrementally maintained index equals a rebuild, for
	// every extension and several decompositions.
	decs := []Decomposition{NoDecomposition(5), BinaryDecomposition(5), {0, 3, 5}}
	for seed := int64(0); seed < 6; seed++ {
		ob, path := randomCompany(t, 1000+seed, 8, 12, 10)
		rng := rand.New(rand.NewSource(seed))

		mgr := NewManager(ob, newPool())
		var ixs []*Index
		for _, ext := range Extensions {
			ix, err := mgr.CreateIndex(path, ext, decs[rng.Intn(len(decs))])
			if err != nil {
				t.Fatal(err)
			}
			ixs = append(ixs, ix)
		}

		schema := ob.Schema()
		divisionT := schema.MustLookup("Division")
		prodSetT := schema.MustLookup("ProdSET")
		productT := schema.MustLookup("Product")
		basePartSetT := schema.MustLookup("BasePartSET")
		basePartT := schema.MustLookup("BasePart")

		pick := func(t_ *gom.Type) gom.OID {
			ext := ob.Extent(t_, true)
			if len(ext) == 0 {
				return gom.NilOID
			}
			return ext[rng.Intn(len(ext))]
		}

		for op := 0; op < 40; op++ {
			switch rng.Intn(6) {
			case 0: // rewire a division
				if d, s := pick(divisionT), pick(prodSetT); !d.IsNil() && !s.IsNil() {
					ob.MustSetAttr(d, "Manufactures", gom.Ref(s))
				}
			case 1: // rewire or clear a product composition
				if p := pick(productT); !p.IsNil() {
					if rng.Intn(4) == 0 {
						ob.MustSetAttr(p, "Composition", nil)
					} else if s := pick(basePartSetT); !s.IsNil() {
						ob.MustSetAttr(p, "Composition", gom.Ref(s))
					}
				}
			case 2: // insert a product into a prodset
				if s, p := pick(prodSetT), pick(productT); !s.IsNil() && !p.IsNil() {
					ob.MustInsertIntoSet(s, gom.Ref(p))
				}
			case 3: // insert a part into a partset
				if s, p := pick(basePartSetT), pick(basePartT); !s.IsNil() && !p.IsNil() {
					ob.MustInsertIntoSet(s, gom.Ref(p))
				}
			case 4: // remove an element from a random set
				setT := prodSetT
				if rng.Intn(2) == 0 {
					setT = basePartSetT
				}
				if s := pick(setT); !s.IsNil() {
					if o, ok := ob.Get(s); ok && o.Len() > 0 {
						elems := o.Elements()
						ob.RemoveFromSet(s, elems[rng.Intn(len(elems))])
					}
				}
			case 5: // rename a part
				if p := pick(basePartT); !p.IsNil() {
					ob.MustSetAttr(p, "Name", gom.String(partName(rng)))
				}
			}
		}
		for _, ix := range ixs {
			assertEqualsRebuild(t, ix, ix.ext.String())
		}
	}
}

func TestMaintainSharedPartition(t *testing.T) {
	c := paperdb.BuildCompany()
	productT := c.Schema.MustLookup("Product")
	q := gom.MustResolvePath(productT, "Composition", "Name")
	pair, err := NewManager(c.Base, newPool()).CreateShared(c.Path, q)
	if err != nil {
		t.Fatal(err)
	}

	c.Base.MustInsertIntoSet(c.PartsSausage, gom.Ref(c.PartDoor))

	// Both views answer correctly after the update.
	prods, err := pair.Q.Query(context.Background(), false, 0, 2, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	got := OIDsOf(prods)
	if len(got) != 2 { // 560SEC and Sausage now both contain a Door
		t.Errorf("shared Q bw(Door) = %v", got)
	}
	divs, err := pair.P.Query(context.Background(), false, 0, 3, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	if gotP := OIDsOf(divs); len(gotP) != 2 {
		t.Errorf("shared P bw(Door) = %v", gotP)
	}
	for _, pp := range pair.P.parts {
		if err := pp.Part.CheckConsistent(); err != nil {
			t.Fatal(err)
		}
	}
}

// Deleting any object on the path — a division, a product, a part or a
// set object at either set column — leaves every extension ×
// decomposition equal to a rebuild: the search finds the references to
// the deleted object and the element edges of the sets it was the last
// to reference, interleaved with retargets that share sets and make
// them unreferenced or referenced again.
func TestMaintainDeletionsMatchRebuild(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		ob, path := randomCompany(t, 300+seed, 6, 10, 8)
		mgr := NewManager(ob, newPool())
		var ixs []*Index
		for _, ext := range Extensions {
			for _, dec := range []Decomposition{BinaryDecomposition(5), NoDecomposition(5), {0, 2, 5}} {
				ix, err := mgr.CreateIndex(path, ext, dec)
				if err != nil {
					t.Fatal(err)
				}
				ixs = append(ixs, ix)
			}
		}
		schema := ob.Schema()
		types := []*gom.Type{schema.MustLookup("Division"), schema.MustLookup("ProdSET"),
			schema.MustLookup("Product"), schema.MustLookup("BasePartSET"), schema.MustLookup("BasePart")}
		rng := rand.New(rand.NewSource(seed))
		pick := func(typ *gom.Type) gom.OID {
			ext := ob.Extent(typ, true)
			if len(ext) == 0 {
				return gom.NilOID
			}
			return ext[rng.Intn(len(ext))]
		}
		for op := 0; op < 40; op++ {
			label := "delete"
			switch typ := types[rng.Intn(len(types))]; {
			case rng.Intn(3) == 0 && typ == types[0]:
				label = "retarget Division.Manufactures"
				if d, s := pick(types[0]), pick(types[1]); !d.IsNil() && !s.IsNil() {
					ob.MustSetAttr(d, "Manufactures", gom.Ref(s))
				}
			case rng.Intn(3) == 0 && typ == types[2]:
				label = "retarget Product.Composition"
				if p, s := pick(types[2]), pick(types[3]); !p.IsNil() && !s.IsNil() {
					ob.MustSetAttr(p, "Composition", gom.Ref(s))
				}
			default:
				if id := pick(typ); !id.IsNil() {
					label = "delete " + typ.Name()
					if err := ob.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, ix := range ixs {
				assertEqualsRebuild(t, ix, fmt.Sprintf("seed %d op %d (%s): %s %s", seed, op, label, ix.ext, ix.dec))
			}
		}
	}
}
