package query

import (
	"math"
	"slices"
	"strings"
	"testing"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/storage"
)

func newPool() *storage.BufferPool {
	return storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
}

func valueStrings(vs []gom.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = gom.ValueString(v)
	}
	return out
}

func TestParseQuery1(t *testing.T) {
	q, err := Parse(`select r.Name
		from r in OurRobots
		where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Projection.String() != "r.Name" {
		t.Errorf("projection = %s", q.Projection)
	}
	if len(q.Ranges) != 1 || q.Ranges[0].Collection != "OurRobots" {
		t.Errorf("ranges = %+v", q.Ranges)
	}
	if len(q.Where) != 1 || !q.Where[0].Literal.Equal(gom.String("Utopia")) {
		t.Errorf("where = %+v", q.Where)
	}
	if got := q.String(); !strings.Contains(got, "select r.Name from r in OurRobots where") {
		t.Errorf("String = %q", got)
	}
}

func TestParseQuery2DependentRange(t *testing.T) {
	q, err := Parse(`select d.Name
		from d in Mercedes, b in d.Manufactures.Composition
		where b.Name = "Door"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ranges) != 2 {
		t.Fatalf("ranges = %+v", q.Ranges)
	}
	dep := q.Ranges[1].Dependent
	if dep == nil || dep.Var != "d" || len(dep.Attrs) != 2 {
		t.Errorf("dependent range = %+v", dep)
	}
}

func TestParseLiteralsAndErrors(t *testing.T) {
	q, err := Parse(`select b from b in Parts where b.Price = 1205.50 and b.Count = 3 and b.Active = true`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Where[0].Literal.Equal(gom.Decimal(1205.50)) ||
		!q.Where[1].Literal.Equal(gom.Integer(3)) ||
		!q.Where[2].Literal.Equal(gom.Bool(true)) {
		t.Errorf("literals = %+v", q.Where)
	}
	bad := []string{
		"",
		"select",
		"select x from",
		"select x from x",
		"select x from x in",
		"select x from x in C where",
		"select x from x in C where x.A",
		"select x from x in C where x.A =",
		`select x from x in C where x.A = "unterminated`,
		"select from from from in C",
		"select x from x in C extra",
		"select x. from x in C",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestQuery1AgainstRobots(t *testing.T) {
	r := paperdb.BuildRobots()
	for _, withIndex := range []bool{false, true} {
		var mgr *asr.Manager
		if withIndex {
			mgr = asr.NewManager(r.Base, newPool())
			if _, err := mgr.CreateIndex(r.Path, asr.Canonical, asr.NoDecomposition(r.Path.Arity()-1)); err != nil {
				t.Fatal(err)
			}
		}
		e := New(r.Base, mgr)
		res, err := e.Run(MustParse(`select r.Name
			from r in OurRobots
			where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`))
		if err != nil {
			t.Fatal(err)
		}
		got := valueStrings(res.Values)
		if len(got) != 3 {
			t.Fatalf("withIndex=%v: Query 1 = %v", withIndex, got)
		}
		usedIndex := strings.Contains(res.Plan, "via ASR")
		if usedIndex != withIndex {
			t.Errorf("withIndex=%v but plan = %q", withIndex, res.Plan)
		}
	}
}

func TestQuery2AgainstCompany(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := asr.NewManager(c.Base, newPool())
	if _, err := mgr.CreateIndex(c.Path, asr.Full, asr.BinaryDecomposition(5)); err != nil {
		t.Fatal(err)
	}
	e := New(c.Base, mgr)
	res, err := e.Run(MustParse(`select d.Name
		from d in Mercedes, b in d.Manufactures.Composition
		where b.Name = "Door"`))
	if err != nil {
		t.Fatal(err)
	}
	got := valueStrings(res.Values)
	if len(got) != 2 || got[0] != `"Auto"` || got[1] != `"Truck"` {
		t.Fatalf("Query 2 = %v", got)
	}
	// The dependent range composes to the indexed path
	// Division.Manufactures.Composition.Name, so the ASR pre-filter fires.
	if !strings.Contains(res.Plan, "via ASR on Division.Manufactures.Composition.Name") {
		t.Errorf("plan = %q", res.Plan)
	}
}

func TestQuery3Projection(t *testing.T) {
	c := paperdb.BuildCompany()
	e := New(c.Base, nil)
	res, err := e.Run(MustParse(`select d.Manufactures.Composition.Name
		from d in Mercedes
		where d.Name = "Auto"`))
	if err != nil {
		t.Fatal(err)
	}
	got := valueStrings(res.Values)
	if len(got) != 1 || got[0] != `"Door"` {
		t.Fatalf("Query 3 = %v", got)
	}
}

func TestBareVariableProjection(t *testing.T) {
	c := paperdb.BuildCompany()
	e := New(c.Base, nil)
	res, err := e.Run(MustParse(`select d from d in Mercedes where d.Name = "Space"`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 {
		t.Fatalf("result = %v", res.Values)
	}
	ref, ok := res.Values[0].(gom.Ref)
	if !ok || ref.OID() != c.DivSpace {
		t.Errorf("result = %v, want ref to Space", res.Values)
	}
}

func TestNoWhereClause(t *testing.T) {
	c := paperdb.BuildCompany()
	e := New(c.Base, nil)
	res, err := e.Run(MustParse(`select d.Name from d in Mercedes`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("all divisions = %v", valueStrings(res.Values))
	}
}

func TestConjunctivePredicates(t *testing.T) {
	c := paperdb.BuildCompany()
	e := New(c.Base, nil)
	// Divisions that use a Door AND are named Truck.
	res, err := e.Run(MustParse(`select d.Name
		from d in Mercedes, b in d.Manufactures.Composition
		where b.Name = "Door" and d.Name = "Truck"`))
	if err != nil {
		t.Fatal(err)
	}
	got := valueStrings(res.Values)
	if len(got) != 1 || got[0] != `"Truck"` {
		t.Fatalf("conjunction = %v", got)
	}
}

func TestResolutionErrors(t *testing.T) {
	c := paperdb.BuildCompany()
	e := New(c.Base, nil)
	bad := []string{
		`select x.Name from x in Nowhere`,                       // unknown collection
		`select x.Nope from x in Mercedes`,                      // unknown attribute
		`select y.Name from x in Mercedes`,                      // undefined projection var
		`select x.Name from x in Mercedes where y.Name = "a"`,   // undefined predicate var
		`select x.Name from x in Mercedes where x = "a"`,        // bare-var predicate
		`select x.Name from x in Mercedes, x in Mercedes`,       // duplicate var
		`select b.Name from b in d.Manufactures, d in Mercedes`, // forward dependency
		`select v.Name from v in x.Name, x in Mercedes`,         // first range dependent
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := e.Run(q); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestIndexPrefilterMatchesNaive(t *testing.T) {
	// Randomized equivalence: with and without ASR assistance, results
	// must coincide.
	c := paperdb.BuildCompany()
	// Grow the database a little.
	schema := c.Schema
	for i := 0; i < 10; i++ {
		p := c.Base.MustNew(schema.MustLookup("Product"))
		c.Base.MustSetAttr(p.ID(), "Name", gom.String("P"))
		c.Base.MustInsertIntoSet(c.ProdSetTruck, gom.Ref(p.ID()))
		if i%2 == 0 {
			c.Base.MustSetAttr(p.ID(), "Composition", gom.Ref(c.PartsSausage))
		}
	}
	mgr := asr.NewManager(c.Base, newPool())
	if _, err := mgr.CreateIndex(c.Path, asr.Full, asr.Decomposition{0, 2, 5}); err != nil {
		t.Fatal(err)
	}
	naive := New(c.Base, nil)
	indexed := New(c.Base, mgr)
	for _, src := range []string{
		`select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Pepper"`,
		`select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Door"`,
		`select d.Manufactures.Composition.Name from d in Mercedes`,
	} {
		q := MustParse(src)
		a, err := naive.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := indexed.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		as, bs := valueStrings(a.Values), valueStrings(b.Values)
		if len(as) != len(bs) {
			t.Fatalf("%s:\nnaive %v\nindexed %v", src, as, bs)
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("%s:\nnaive %v\nindexed %v", src, as, bs)
			}
		}
	}
}

func TestIndexBackedProjection(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := asr.NewManager(c.Base, newPool())
	if _, err := mgr.CreateIndex(c.Path, asr.Full, asr.Decomposition{0, 5}); err != nil {
		t.Fatal(err)
	}
	e := New(c.Base, mgr)
	res, err := e.Run(MustParse(`select d.Manufactures.Composition.Name
		from d in Mercedes
		where d.Name = "Auto"`))
	if err != nil {
		t.Fatal(err)
	}
	got := valueStrings(res.Values)
	if len(got) != 1 || got[0] != `"Door"` {
		t.Fatalf("projection = %v", got)
	}
	if !strings.Contains(res.Plan, "projection d.Manufactures.Composition.Name via ASR") {
		t.Errorf("plan = %q", res.Plan)
	}
	// Results must match the pure-traversal evaluation.
	naive, err := New(c.Base, nil).Run(MustParse(`select d.Manufactures.Composition.Name
		from d in Mercedes
		where d.Name = "Auto"`))
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Values) != len(res.Values) {
		t.Errorf("naive %v != indexed %v", valueStrings(naive.Values), got)
	}
}

// TestDecimalZerosSameWithIndex: a DECIMAL's identity is its bits — in
// Equal, in a set and in an index key alike — so an index on the
// predicate's path does not change which objects a comparison with 0
// selects when the base holds both -0 and 0.
func TestDecimalZerosSameWithIndex(t *testing.T) {
	schema, _, err := gom.ParseSchema(`type T is [D: DECIMAL]; type TS is {T};`)
	if err != nil {
		t.Fatal(err)
	}
	ob := gom.NewObjectBase(schema)
	all := ob.MustNew(schema.MustLookup("TS"))
	if err := ob.BindVar("All", all.ID()); err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{math.Copysign(0, -1), 0, 1} {
		o := ob.MustNew(schema.MustLookup("T"))
		ob.MustSetAttr(o.ID(), "D", gom.Decimal(d))
		ob.MustInsertIntoSet(all.ID(), gom.Ref(o.ID()))
	}
	mgr := asr.NewManager(ob, newPool())
	if _, err := mgr.CreateIndex(gom.MustResolvePath(schema.MustLookup("T"), "D"), asr.Full, asr.BinaryDecomposition(1)); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`select x from x in All where x.D = 0.0`,
		`select x from x in All where x.D = 1.0`,
	} {
		plain, err := New(ob, nil).Run(MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := New(ob, mgr).Run(MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(indexed.Plan, "via ASR") {
			t.Fatalf("%s: the index was not used: %s", sql, indexed.Plan)
		}
		if got, want := valueStrings(indexed.Values), valueStrings(plain.Values); !slices.Equal(got, want) || len(got) != 1 {
			t.Errorf("%s: indexed %v, traversal %v; want one and the same object", sql, got, want)
		}
	}
}
