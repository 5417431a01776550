package gom

import (
	"strings"
	"testing"
)

func mustTuple(t *testing.T, s *Schema, name string, sups []*Type, attrs []Attribute) *Type {
	t.Helper()
	typ, err := s.DefineTuple(name, sups, attrs)
	if err != nil {
		t.Fatalf("DefineTuple(%s): %v", name, err)
	}
	return typ
}

func TestSchemaBuiltins(t *testing.T) {
	s := NewSchema()
	for _, name := range []string{"STRING", "INTEGER", "DECIMAL", "BOOL", "CHAR"} {
		typ, ok := s.Lookup(name)
		if !ok {
			t.Fatalf("builtin %s missing", name)
		}
		if typ.Kind() != AtomicType {
			t.Errorf("builtin %s: kind = %v, want atomic", name, typ.Kind())
		}
	}
	if _, ok := s.Lookup("ROBOT"); ok {
		t.Error("unexpected type ROBOT in fresh schema")
	}
}

func TestDefineTupleAndAttributes(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	manu := mustTuple(t, s, "MANUFACTURER", nil, []Attribute{{"Name", str}, {"Location", str}})
	tool := mustTuple(t, s, "TOOL", nil, []Attribute{{"Function", str}, {"ManufacturedBy", manu}})

	if got := len(tool.Attributes()); got != 2 {
		t.Fatalf("TOOL attribute count = %d, want 2", got)
	}
	a, ok := tool.Attribute("ManufacturedBy")
	if !ok || a.Type != manu {
		t.Fatalf("TOOL.ManufacturedBy = %+v ok=%v, want MANUFACTURER", a, ok)
	}
	if _, ok := tool.Attribute("Nope"); ok {
		t.Error("unexpected attribute Nope")
	}
}

func TestDuplicateTypeRejected(t *testing.T) {
	s := NewSchema()
	mustTuple(t, s, "T", nil, nil)
	if _, err := s.DefineTuple("T", nil, nil); err == nil {
		t.Fatal("duplicate type T accepted")
	}
	if _, err := s.DefineTuple("ANY", nil, nil); err == nil {
		t.Fatal("reserved name ANY accepted")
	}
}

func TestDuplicateAttributeRejected(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	if _, err := s.DefineTuple("T", nil, []Attribute{{"A", str}, {"A", str}}); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
}

func TestInheritance(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	integer := s.MustLookup("INTEGER")
	base := mustTuple(t, s, "BASE", nil, []Attribute{{"Name", str}})
	mid := mustTuple(t, s, "MID", []*Type{base}, []Attribute{{"Count", integer}})
	leaf := mustTuple(t, s, "LEAF", []*Type{mid}, []Attribute{{"Extra", str}})

	if got := len(leaf.Attributes()); got != 3 {
		t.Fatalf("LEAF attributes = %d, want 3 (inherited first)", got)
	}
	if leaf.Attributes()[0].Name != "Name" {
		t.Errorf("inherited attribute order wrong: %v", leaf.Attributes())
	}
	if !leaf.IsSubtypeOf(base) || !leaf.IsSubtypeOf(mid) || !leaf.IsSubtypeOf(leaf) {
		t.Error("subtype relation broken")
	}
	if base.IsSubtypeOf(leaf) {
		t.Error("supertype reported as subtype")
	}
}

func TestMultipleInheritanceDiamond(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	root := mustTuple(t, s, "ROOT", nil, []Attribute{{"Name", str}})
	a := mustTuple(t, s, "A", []*Type{root}, []Attribute{{"AOnly", str}})
	b := mustTuple(t, s, "B", []*Type{root}, []Attribute{{"BOnly", str}})
	d := mustTuple(t, s, "D", []*Type{a, b}, nil)
	// Name comes in twice via the diamond but identically: admitted once.
	if got := len(d.Attributes()); got != 3 {
		t.Fatalf("diamond attributes = %d, want 3: %v", got, d.Attributes())
	}
}

func TestMultipleInheritanceConflictRejected(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	integer := s.MustLookup("INTEGER")
	a := mustTuple(t, s, "A", nil, []Attribute{{"X", str}})
	b := mustTuple(t, s, "B", nil, []Attribute{{"X", integer}})
	if _, err := s.DefineTuple("C", []*Type{a, b}, nil); err == nil {
		t.Fatal("conflicting inherited attributes accepted")
	}
}

func TestNonTupleSupertypeRejected(t *testing.T) {
	s := NewSchema()
	set, err := s.DefineCollection("S", SetType, s.MustLookup("STRING"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineTuple("T", []*Type{set}, nil); err == nil {
		t.Fatal("set supertype accepted")
	}
}

func TestPowersetRejected(t *testing.T) {
	s := NewSchema()
	inner, err := s.DefineCollection("INNER", SetType, s.MustLookup("STRING"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineCollection("OUTER", SetType, inner); err == nil {
		t.Fatal("powerset accepted, paper forbids it")
	}
	if _, err := s.DefineCollection("TUPLE", TupleType, inner); err == nil {
		t.Fatal("a tuple kind accepted as a collection")
	}
}

func TestSetAndListTypes(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	part := mustTuple(t, s, "PART", nil, []Attribute{{"Name", str}})
	set, err := s.DefineCollection("PARTSET", SetType, part)
	if err != nil {
		t.Fatal(err)
	}
	if set.Kind() != SetType || set.Elem() != part {
		t.Errorf("set type wrong: kind=%v elem=%v", set.Kind(), set.Elem())
	}
	list, err := s.DefineCollection("PARTLIST", ListType, part)
	if err != nil {
		t.Fatal(err)
	}
	if list.Kind() != ListType || list.Elem() != part {
		t.Errorf("list type wrong: kind=%v elem=%v", list.Kind(), list.Elem())
	}
}

func TestTypeDefinitionRendering(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	base := mustTuple(t, s, "BASE", nil, []Attribute{{"Name", str}})
	sub := mustTuple(t, s, "SUB", []*Type{base}, []Attribute{{"Extra", str}})
	def := sub.Definition()
	for _, want := range []string{"type SUB is", "supertypes (BASE)", "Extra: STRING"} {
		if !strings.Contains(def, want) {
			t.Errorf("Definition() = %q, missing %q", def, want)
		}
	}
	set, _ := s.DefineCollection("BASESET", SetType, base)
	if got := set.Definition(); got != "type BASESET is {BASE};" {
		t.Errorf("set Definition() = %q", got)
	}
}
