package gom

import (
	"math"
	"testing"
)

// testSchema builds a small company-like schema directly via the API.
func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	str := s.MustLookup("STRING")
	dec := s.MustLookup("DECIMAL")
	part := mustTuple(t, s, "BasePart", nil, []Attribute{{"Name", str}, {"Price", dec}})
	partSet, err := s.DefineCollection("BasePartSET", SetType, part)
	if err != nil {
		t.Fatal(err)
	}
	mustTuple(t, s, "Product", nil, []Attribute{{"Name", str}, {"Composition", partSet}})
	return s
}

func TestNewObjectInitialization(t *testing.T) {
	s := testSchema(t)
	ob := NewObjectBase(s)

	prod := ob.MustNew(s.MustLookup("Product"))
	v, ok := prod.Attr("Name")
	if !ok || v != nil {
		t.Fatalf("fresh tuple attribute: v=%v ok=%v, want NULL/true", v, ok)
	}
	set := ob.MustNew(s.MustLookup("BasePartSET"))
	if set.Len() != 0 {
		t.Fatalf("fresh set length = %d, want 0", set.Len())
	}
	if _, err := ob.New(s.MustLookup("STRING")); err == nil {
		t.Fatal("instantiating atomic type accepted")
	}
}

func TestOIDsUniqueAndStable(t *testing.T) {
	s := testSchema(t)
	ob := NewObjectBase(s)
	seen := map[OID]bool{}
	for i := 0; i < 100; i++ {
		o := ob.MustNew(s.MustLookup("BasePart"))
		if seen[o.ID()] {
			t.Fatalf("OID %v reused", o.ID())
		}
		seen[o.ID()] = true
	}
	// Deletion must not free identifiers for reuse.
	var del OID
	for id := range seen {
		del = id
		break
	}
	if err := ob.Delete(del); err != nil {
		t.Fatal(err)
	}
	o := ob.MustNew(s.MustLookup("BasePart"))
	if seen[o.ID()] {
		t.Fatalf("OID %v reused after delete", o.ID())
	}
}

func TestSetAttrTypeChecking(t *testing.T) {
	s := testSchema(t)
	ob := NewObjectBase(s)
	prod := ob.MustNew(s.MustLookup("Product"))
	part := ob.MustNew(s.MustLookup("BasePart"))
	set := ob.MustNew(s.MustLookup("BasePartSET"))

	if err := ob.SetAttr(prod.ID(), "Name", String("560 SEC")); err != nil {
		t.Fatal(err)
	}
	if err := ob.SetAttr(prod.ID(), "Name", Integer(5)); err == nil {
		t.Error("INTEGER into STRING attribute accepted")
	}
	if err := ob.SetAttr(prod.ID(), "Composition", Ref(set.ID())); err != nil {
		t.Errorf("valid reference rejected: %v", err)
	}
	if err := ob.SetAttr(prod.ID(), "Composition", Ref(part.ID())); err == nil {
		t.Error("BasePart reference into BasePartSET slot accepted")
	}
	if err := ob.SetAttr(prod.ID(), "Composition", Ref(999)); err == nil {
		t.Error("dangling reference accepted")
	}
	if err := ob.SetAttr(prod.ID(), "Nope", String("x")); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := ob.SetAttr(prod.ID(), "Composition", nil); err != nil {
		t.Errorf("NULL assignment rejected: %v", err)
	}
	if got := prod.AttrOID("Composition"); got != NilOID {
		t.Errorf("after NULL assignment AttrOID = %v", got)
	}
}

func TestSubtypeSubstitutability(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	tool := mustTuple(t, s, "TOOL", nil, []Attribute{{"Function", str}})
	laser := mustTuple(t, s, "LASER_TOOL", []*Type{tool}, []Attribute{{"Wattage", str}})
	arm := mustTuple(t, s, "ARM", nil, []Attribute{{"MountedTool", tool}})

	ob := NewObjectBase(s)
	a := ob.MustNew(arm)
	l := ob.MustNew(laser)
	if err := ob.SetAttr(a.ID(), "MountedTool", Ref(l.ID())); err != nil {
		t.Fatalf("subtype instance rejected in supertype slot: %v", err)
	}
	// The inherited attribute is usable on the subtype instance.
	if err := ob.SetAttr(l.ID(), "Function", String("cutting")); err != nil {
		t.Fatalf("inherited attribute rejected: %v", err)
	}
}

func TestSetSemantics(t *testing.T) {
	s := testSchema(t)
	ob := NewObjectBase(s)
	set := ob.MustNew(s.MustLookup("BasePartSET"))
	p1 := ob.MustNew(s.MustLookup("BasePart"))
	p2 := ob.MustNew(s.MustLookup("BasePart"))

	ob.MustInsertIntoSet(set.ID(), Ref(p1.ID()))
	ob.MustInsertIntoSet(set.ID(), Ref(p1.ID())) // duplicate: no-op
	ob.MustInsertIntoSet(set.ID(), Ref(p2.ID()))
	if set.Len() != 2 {
		t.Fatalf("set length = %d, want 2", set.Len())
	}
	if !set.Contains(Ref(p1.ID())) {
		t.Error("Contains(p1) = false")
	}
	if err := ob.RemoveFromSet(set.ID(), Ref(p1.ID())); err != nil {
		t.Fatal(err)
	}
	if set.Contains(Ref(p1.ID())) || set.Len() != 1 {
		t.Error("remove did not take effect")
	}
	// Removing an absent element is a no-op.
	if err := ob.RemoveFromSet(set.ID(), Ref(p1.ID())); err != nil {
		t.Fatal(err)
	}
	// Element typing enforced.
	prod := ob.MustNew(s.MustLookup("Product"))
	if err := ob.InsertIntoSet(set.ID(), Ref(prod.ID())); err == nil {
		t.Error("Product inserted into BasePartSET")
	}
	if err := ob.InsertIntoSet(set.ID(), nil); err == nil {
		t.Error("NULL inserted into set")
	}
}

func TestExtents(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	base := mustTuple(t, s, "BASE", nil, []Attribute{{"Name", str}})
	sub := mustTuple(t, s, "SUB", []*Type{base}, nil)
	ob := NewObjectBase(s)
	b1 := ob.MustNew(base)
	s1 := ob.MustNew(sub)
	s2 := ob.MustNew(sub)

	if got := ob.Extent(base, false); len(got) != 1 || got[0] != b1.ID() {
		t.Errorf("exact extent = %v", got)
	}
	if got := ob.Extent(base, true); len(got) != 3 {
		t.Errorf("deep extent = %v, want 3 OIDs", got)
	}
	if got := ob.Extent(sub, true); len(got) != 2 || got[0] != s1.ID() || got[1] != s2.ID() {
		t.Errorf("sub extent = %v", got)
	}
	ob.Delete(s1.ID())
	if got := ob.Extent(sub, false); len(got) != 1 {
		t.Errorf("extent after delete = %v", got)
	}
}

func TestVarsAndIntegrity(t *testing.T) {
	s := testSchema(t)
	ob := NewObjectBase(s)
	set := ob.MustNew(s.MustLookup("BasePartSET"))
	if err := ob.BindVar("AllParts", set.ID()); err != nil {
		t.Fatal(err)
	}
	id, ok := ob.Var("AllParts")
	if !ok || id != set.ID() {
		t.Fatalf("Var = %v,%v", id, ok)
	}
	if err := ob.BindVar("Bad", 999); err == nil {
		t.Error("binding to unknown object accepted")
	}

	part := ob.MustNew(s.MustLookup("BasePart"))
	ob.MustInsertIntoSet(set.ID(), Ref(part.ID()))
	if errs := ob.CheckIntegrity(); len(errs) != 0 {
		t.Fatalf("unexpected integrity errors: %v", errs)
	}
	ob.Delete(part.ID())
	if errs := ob.CheckIntegrity(); len(errs) != 1 {
		t.Fatalf("integrity errors = %v, want 1 dangling ref", errs)
	}
}

type recordingObserver struct {
	events []string
}

func (r *recordingObserver) AttrAssigned(o *Object, attr string, old, new Value) {
	r.events = append(r.events, "attr:"+attr)
}
func (r *recordingObserver) SetInserted(set *Object, elem Value) {
	r.events = append(r.events, "ins")
}
func (r *recordingObserver) SetRemoved(set *Object, elem Value) {
	r.events = append(r.events, "rem")
}
func (r *recordingObserver) ObjectDeleted(o *Object) {
	r.events = append(r.events, "del")
}

func TestObserverNotifications(t *testing.T) {
	s := testSchema(t)
	ob := NewObjectBase(s)
	rec := &recordingObserver{}
	ob.AddObserver(rec)

	prod := ob.MustNew(s.MustLookup("Product"))
	set := ob.MustNew(s.MustLookup("BasePartSET"))
	part := ob.MustNew(s.MustLookup("BasePart"))

	ob.MustSetAttr(prod.ID(), "Name", String("X"))
	ob.MustSetAttr(prod.ID(), "Name", String("X")) // unchanged: no event
	ob.MustInsertIntoSet(set.ID(), Ref(part.ID()))
	ob.MustInsertIntoSet(set.ID(), Ref(part.ID())) // duplicate: no event
	ob.RemoveFromSet(set.ID(), Ref(part.ID()))
	ob.Delete(part.ID())

	want := []string{"attr:Name", "ins", "rem", "del"}
	if len(rec.events) != len(want) {
		t.Fatalf("events = %v, want %v", rec.events, want)
	}
	for i := range want {
		if rec.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", rec.events, want)
		}
	}

	ob.RemoveObserver(rec)
	ob.MustSetAttr(prod.ID(), "Name", String("Y"))
	if len(rec.events) != len(want) {
		t.Error("observer still notified after removal")
	}
}

func TestListSemantics(t *testing.T) {
	s := testSchema(t)
	list, err := s.DefineCollection("PartList", ListType, s.MustLookup("BasePart"))
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObjectBase(s)
	l := ob.MustNew(list)
	p1 := ob.MustNew(s.MustLookup("BasePart"))
	p2 := ob.MustNew(s.MustLookup("BasePart"))
	if err := ob.AppendToList(l.ID(), Ref(p1.ID())); err != nil {
		t.Fatal(err)
	}
	if err := ob.AppendToList(l.ID(), Ref(p2.ID())); err != nil {
		t.Fatal(err)
	}
	if err := ob.AppendToList(l.ID(), Ref(p1.ID())); err != nil {
		t.Fatal(err) // lists admit duplicates
	}
	if l.Len() != 3 {
		t.Fatalf("list length = %d, want 3", l.Len())
	}
	ids := l.ElementOIDs()
	if len(ids) != 3 || ids[0] != p1.ID() || ids[1] != p2.ID() || ids[2] != p1.ID() {
		t.Errorf("list order wrong: %v", ids)
	}
}

// TestNonFiniteDecimalRejected: a NaN or an infinity is no DECIMAL.
// SetAttr, InsertIntoSet and AppendToList refuse it with an error, so no
// base holds a value that a dump could not save.
func TestNonFiniteDecimalRejected(t *testing.T) {
	s, _, err := ParseSchema(`type T is [D: DECIMAL]; type DS is {DECIMAL}; type DL is <DECIMAL>;`)
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObjectBase(s)
	o, set, list := ob.MustNew(s.MustLookup("T")), ob.MustNew(s.MustLookup("DS")), ob.MustNew(s.MustLookup("DL"))
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := Decimal(d)
		if err := ob.SetAttr(o.ID(), "D", v); err == nil {
			t.Errorf("SetAttr stored %v", v)
		}
		if err := ob.InsertIntoSet(set.ID(), v); err == nil {
			t.Errorf("InsertIntoSet stored %v", v)
		}
		if err := ob.AppendToList(list.ID(), v); err == nil {
			t.Errorf("AppendToList stored %v", v)
		}
	}
	if v, _ := o.Attr("D"); v != nil || set.Len() != 0 || list.Len() != 0 {
		t.Errorf("a refused value was stored: D=%v, set %v, list %v", v, set.Elements(), list.Elements())
	}
}
