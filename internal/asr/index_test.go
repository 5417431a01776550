package asr

import (
	"context"
	"math/rand"
	"testing"

	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/relation"
	"asr/internal/storage"
)

func newPool() *storage.BufferPool {
	return storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
}

// randomCompany builds a randomized instance of the company schema:
// counts control the population, and the rng wires references with
// deliberate partiality (NULL attributes, empty sets, shared subobjects,
// unreferenced objects) to exercise all extension boundary cases.
func randomCompany(t testing.TB, seed int64, nDiv, nProd, nPart int) (*gom.ObjectBase, *gom.PathExpression) {
	t.Helper()
	schema, _, err := gom.ParseSchema(paperdb.CompanySchemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	ob := gom.NewObjectBase(schema)
	rng := rand.New(rand.NewSource(seed))

	divisionT := schema.MustLookup("Division")
	prodSetT := schema.MustLookup("ProdSET")
	productT := schema.MustLookup("Product")
	basePartSetT := schema.MustLookup("BasePartSET")
	basePartT := schema.MustLookup("BasePart")

	parts := make([]gom.OID, nPart)
	for i := range parts {
		o := ob.MustNew(basePartT)
		parts[i] = o.ID()
		if rng.Intn(4) > 0 {
			ob.MustSetAttr(o.ID(), "Name", gom.String(partName(rng)))
		}
	}
	partSets := make([]gom.OID, 0)
	for i := 0; i < nPart/2+1; i++ {
		s := ob.MustNew(basePartSetT)
		partSets = append(partSets, s.ID())
		for k := rng.Intn(4); k > 0; k-- {
			ob.MustInsertIntoSet(s.ID(), gom.Ref(parts[rng.Intn(len(parts))]))
		}
	}
	prods := make([]gom.OID, nProd)
	for i := range prods {
		o := ob.MustNew(productT)
		prods[i] = o.ID()
		if rng.Intn(3) > 0 {
			ob.MustSetAttr(o.ID(), "Composition", gom.Ref(partSets[rng.Intn(len(partSets))]))
		}
	}
	prodSets := make([]gom.OID, 0)
	for i := 0; i < nProd/2+1; i++ {
		s := ob.MustNew(prodSetT)
		prodSets = append(prodSets, s.ID())
		for k := rng.Intn(4); k > 0; k-- {
			ob.MustInsertIntoSet(s.ID(), gom.Ref(prods[rng.Intn(len(prods))]))
		}
	}
	for i := 0; i < nDiv; i++ {
		o := ob.MustNew(divisionT)
		if rng.Intn(3) > 0 {
			ob.MustSetAttr(o.ID(), "Manufactures", gom.Ref(prodSets[rng.Intn(len(prodSets))]))
		}
	}
	path := gom.MustResolvePath(divisionT, "Manufactures", "Composition", "Name")
	return ob, path
}

var partNames = []string{"Door", "Pepper", "Bolt", "Wheel", "Frame"}

func partName(rng *rand.Rand) string { return partNames[rng.Intn(len(partNames))] }

func TestBuildIndexAndGoldenQueries(t *testing.T) {
	c := paperdb.BuildCompany()
	for _, ext := range Extensions {
		for _, dec := range []Decomposition{NoDecomposition(5), BinaryDecomposition(5), {0, 2, 5}} {
			ix, err := Build(c.Base, c.Path, ext, dec, newPool())
			if err != nil {
				t.Fatalf("%v %v: %v", ext, dec, err)
			}
			if err := verifyClean(ix); err != nil {
				t.Fatalf("%v %v: %v", ext, dec, err)
			}
			// Query 2 (§2.3): which Division uses a BasePart named "Door"?
			// That's backward over the whole path: supported by every
			// extension.
			divs, err := ix.Query(context.Background(), false, 0, 3, gom.String("Door"))
			if err != nil {
				t.Fatalf("%v %v: backward: %v", ext, dec, err)
			}
			got := OIDsOf(divs)
			if len(got) != 2 || got[0] != c.DivAuto || got[1] != c.DivTruck {
				t.Errorf("%v %v: Query 2 = %v, want [Auto Truck]", ext, dec, got)
			}
			// Query 3: all BasePart names of division Auto — forward 0→3.
			names, err := ix.Query(context.Background(), true, 0, 3, gom.Ref(c.DivAuto))
			if err != nil {
				t.Fatalf("%v %v: forward: %v", ext, dec, err)
			}
			if len(names) != 1 || !names[0].Equal(gom.String("Door")) {
				t.Errorf("%v %v: Query 3 = %v, want [Door]", ext, dec, names)
			}
		}
	}
}

func TestPartialSpanSupportRules(t *testing.T) {
	c := paperdb.BuildCompany()
	cases := []struct {
		ext     Extension
		i, j    int
		wantErr bool
	}{
		{Canonical, 0, 3, false},
		{Canonical, 0, 2, true},
		{Canonical, 1, 3, true},
		{LeftComplete, 0, 2, false},
		{LeftComplete, 1, 3, true},
		{RightComplete, 1, 3, false},
		{RightComplete, 0, 2, true},
		{Full, 1, 2, false},
	}
	for _, cse := range cases {
		ix, err := Build(c.Base, c.Path, cse.ext, BinaryDecomposition(5), newPool())
		if err != nil {
			t.Fatal(err)
		}
		_, err = ix.Query(context.Background(), true, cse.i, cse.j, gom.Ref(c.DivAuto))
		if gotErr := err == ErrNotSupported; gotErr != cse.wantErr {
			t.Errorf("%v Q(%d,%d): err=%v, wantErr=%v", cse.ext, cse.i, cse.j, err, cse.wantErr)
		}
	}
}

func TestPartialSpanQueryResults(t *testing.T) {
	c := paperdb.BuildCompany()
	ix, err := Build(c.Base, c.Path, Full, Decomposition{0, 3, 5}, newPool())
	if err != nil {
		t.Fatal(err)
	}
	// Forward 1→2: products of which base-part sets... step 1 = Product,
	// step 2 = BasePart. From 560SEC we reach Door.
	parts, err := ix.Query(context.Background(), true, 1, 2, gom.Ref(c.Prod560SEC))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(parts); len(got) != 1 || got[0] != c.PartDoor {
		t.Errorf("forward 1→2 = %v", got)
	}
	// Backward 1→3: which products contain a part named "Pepper"?
	prods, err := ix.Query(context.Background(), false, 1, 3, gom.String("Pepper"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(prods); len(got) != 1 || got[0] != c.ProdSausage {
		t.Errorf("backward 1→3 = %v", got)
	}
	// Backward 2→3 within the last partition.
	ps, err := ix.Query(context.Background(), false, 2, 3, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(ps); len(got) != 1 || got[0] != c.PartDoor {
		t.Errorf("backward 2→3 = %v", got)
	}
}

// naiveForward computes the reference answer by object traversal.
func naiveForward(ob *gom.ObjectBase, path *gom.PathExpression, start gom.OID, i, j int) map[string]bool {
	cur := map[gom.OID]bool{start: true}
	out := map[string]bool{}
	for step := i + 1; step <= j; step++ {
		st := path.Step(step)
		next := map[gom.OID]bool{}
		for id := range cur {
			o, ok := ob.Get(id)
			if !ok {
				continue
			}
			v, _ := o.Attr(st.Attr)
			if v == nil {
				continue
			}
			if st.IsSetOccurrence() {
				setObj, ok := ob.Get(v.(gom.Ref).OID())
				if !ok {
					continue
				}
				for _, e := range setObj.Elements() {
					if step == j {
						out[gom.ValueString(e)] = true
					} else if r, ok := e.(gom.Ref); ok {
						next[r.OID()] = true
					}
				}
			} else {
				if step == j {
					out[gom.ValueString(v)] = true
				} else if r, ok := v.(gom.Ref); ok {
					next[r.OID()] = true
				}
			}
		}
		cur = next
	}
	return out
}

func TestQueriesAgainstNaiveTraversalRandomized(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ob, path := randomCompany(t, seed, 10, 15, 12)
		ixFull, err := Build(ob, path, Full, BinaryDecomposition(5), newPool())
		if err != nil {
			t.Fatal(err)
		}
		ixLeft, err := Build(ob, path, LeftComplete, Decomposition{0, 4, 5}, newPool())
		if err != nil {
			t.Fatal(err)
		}
		divT := ob.Schema().MustLookup("Division")
		for _, div := range ob.Extent(divT, true) {
			for j := 1; j <= 3; j++ {
				want := naiveForward(ob, path, div, 0, j)
				for name, ix := range map[string]*Index{"full": ixFull, "left": ixLeft} {
					got, err := ix.Query(context.Background(), true, 0, j, gom.Ref(div))
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, name, err)
					}
					if len(got) != len(want) {
						t.Fatalf("seed %d %s: fw(0,%d) from %v = %d values, want %d",
							seed, name, j, div, len(got), len(want))
					}
					for _, v := range got {
						if !want[gom.ValueString(v)] {
							t.Fatalf("seed %d %s: unexpected %v", seed, name, v)
						}
					}
				}
			}
		}
	}
}

func TestBackwardAgainstNaiveRandomized(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		ob, path := randomCompany(t, seed, 8, 12, 10)
		ix, err := Build(ob, path, Full, NoDecomposition(5), newPool())
		if err != nil {
			t.Fatal(err)
		}
		divT := ob.Schema().MustLookup("Division")
		for _, name := range partNames {
			// Reference: divisions whose forward closure contains name.
			want := map[string]bool{}
			for _, div := range ob.Extent(divT, true) {
				if naiveForward(ob, path, div, 0, 3)[gom.ValueString(gom.String(name))] {
					want[gom.Ref(div).String()] = true
				}
			}
			got, err := ix.Query(context.Background(), false, 0, 3, gom.String(name))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d bw(%q) = %v, want %d divisions", seed, name, got, len(want))
			}
			for _, v := range got {
				if !want[gom.ValueString(v)] {
					t.Fatalf("seed %d bw(%q): unexpected %v", seed, name, v)
				}
			}
		}
	}
}

func TestLosslessnessPropertyRandomized(t *testing.T) {
	// Theorem 3.9: every decomposition of every extension recomposes to
	// the original, on randomized object bases.
	for seed := int64(100); seed < 106; seed++ {
		ob, path := randomCompany(t, seed, 6, 9, 8)
		aux, err := BuildAuxiliaryRelations(ob, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range Extensions {
			full, err := BuildExtension(ext, "E", aux)
			if err != nil {
				t.Fatal(err)
			}
			for _, dec := range EnumerateDecompositions(5) {
				parts, err := Decompose(full, dec)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Recompose("E'", parts)
				if err != nil {
					t.Fatal(err)
				}
				if !back.Equal(full) {
					t.Fatalf("seed %d %v dec %v: recomposition diverges\noriginal:\n%v\nrecomposed:\n%v",
						seed, ext, dec, full, back)
				}
			}
		}
	}
}

func TestExtensionContainmentRandomized(t *testing.T) {
	for seed := int64(200); seed < 208; seed++ {
		ob, path := randomCompany(t, seed, 6, 9, 8)
		aux, err := BuildAuxiliaryRelations(ob, path)
		if err != nil {
			t.Fatal(err)
		}
		rels := map[Extension]*relation.Relation{}
		for _, ext := range Extensions {
			r, err := BuildExtension(ext, "E", aux)
			if err != nil {
				t.Fatal(err)
			}
			rels[ext] = r
		}
		// can ⊆ left, can ⊆ right, left ⊆ full, right ⊆ full.
		pairs := []struct{ sub, super Extension }{
			{Canonical, LeftComplete}, {Canonical, RightComplete},
			{LeftComplete, Full}, {RightComplete, Full}, {Canonical, Full},
		}
		for _, p := range pairs {
			rels[p.sub].Each(func(tu relation.Tuple) bool {
				if !contains(rels[p.super], tu) {
					t.Errorf("seed %d: %v row %v missing from %v", seed, p.sub, tu, p.super)
				}
				return true
			})
		}
	}
}

func TestEnumerateDecompositions(t *testing.T) {
	decs := EnumerateDecompositions(3)
	if len(decs) != 4 {
		t.Fatalf("m=3: %d decompositions, want 2^(m-1)=4", len(decs))
	}
	for _, d := range decs {
		if err := d.Validate(3); err != nil {
			t.Errorf("invalid decomposition %v: %v", d, err)
		}
	}
	if len(EnumerateDecompositions(5)) != 16 {
		t.Error("m=5 should yield 16 decompositions")
	}
	if EnumerateDecompositions(0) != nil {
		t.Error("m=0 should yield none")
	}
}

func TestSharingPlanAndBuild(t *testing.T) {
	c := paperdb.BuildCompany()
	productT := c.Schema.MustLookup("Product")
	q := gom.MustResolvePath(productT, "Composition", "Name")
	plan, err := PlanSharing(c.Path, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Length != 2 || plan.PStart != 1 || plan.QStart != 0 {
		t.Fatalf("plan = %+v", plan)
	}
	// Both shared segments end at their path's final step (…Composition.
	// Name leads to t_n in both), so §5.4's right-complete exception
	// applies.
	if plan.Extension != RightComplete {
		t.Errorf("expected RightComplete sharing, got %v", plan.Extension)
	}
	pair, err := BuildShared(c.Base, c.Path, q, newPool())
	if err != nil {
		t.Fatal(err)
	}
	shared := pair.SharedPartition()
	if shared != pair.Q.parts[pair.Plan.QPartIdx].Part {
		t.Fatal("partitions not physically shared")
	}
	// Queries through both indexes still give correct answers.
	divs, err := pair.P.Query(context.Background(), false, 0, 3, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(divs); len(got) != 2 {
		t.Errorf("shared P backward = %v", got)
	}
	prods, err := pair.Q.Query(context.Background(), false, 0, 2, gom.String("Pepper"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(prods); len(got) != 1 || got[0] != c.ProdSausage {
		t.Errorf("shared Q backward = %v", got)
	}
}

func TestSharingPrefixPlan(t *testing.T) {
	// Two paths sharing their prefix from t_0 admit left-complete sharing.
	r := paperdb.BuildRobots()
	robotT := r.Schema.MustLookup("ROBOT")
	p1 := gom.MustResolvePath(robotT, "Arm", "MountedTool", "ManufacturedBy", "Location")
	p2 := gom.MustResolvePath(robotT, "Arm", "MountedTool", "Function")
	plan, err := PlanSharing(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Extension != LeftComplete || plan.PStart != 0 || plan.QStart != 0 || plan.Length != 2 {
		t.Fatalf("plan = %+v", plan)
	}
}
