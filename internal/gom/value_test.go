package gom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestValueKindsAndStrings(t *testing.T) {
	cases := []struct {
		v    Value
		kind AtomicKind
		str  string
	}{
		{String("x"), KindString, `"x"`},
		{Integer(-5), KindInteger, "-5"},
		{Decimal(2.5), KindDecimal, "2.5"},
		{Bool(true), KindBool, "true"},
		{Char('A'), KindChar, "'A'"},
		{Ref(3), KindRef, "i3"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v: String = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
	for _, k := range []AtomicKind{KindString, KindInteger, KindDecimal, KindBool, KindChar, KindRef, KindInvalid} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestValueEquality(t *testing.T) {
	pairs := []struct {
		a, b  Value
		equal bool
	}{
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Integer(1), Integer(1), true},
		{Integer(1), Decimal(1), false}, // cross-kind never equal
		{Decimal(1.5), Decimal(1.5), true},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Char('x'), Char('x'), true},
		{Char('x'), String("x"), false},
		{Ref(1), Ref(1), true},
		{Ref(1), Ref(2), false},
		{Ref(1), Integer(1), false},
	}
	for _, p := range pairs {
		if got := p.a.Equal(p.b); got != p.equal {
			t.Errorf("%v.Equal(%v) = %v, want %v", p.a, p.b, got, p.equal)
		}
	}
	if !ValuesEqual(nil, nil) {
		t.Error("NULL must equal NULL in ValuesEqual")
	}
	if ValuesEqual(nil, String("x")) || ValuesEqual(String("x"), nil) {
		t.Error("NULL must not equal a value")
	}
	if ValueString(nil) != "NULL" {
		t.Error("ValueString(nil) != NULL")
	}
}

func TestOIDStringForms(t *testing.T) {
	if NilOID.String() != "NULL" || !NilOID.IsNil() {
		t.Error("NilOID rendering broken")
	}
	if OID(42).String() != "i42" || OID(42).IsNil() {
		t.Error("OID rendering broken")
	}
	if OID(7).GoString() != "gom.OID(7)" {
		t.Errorf("GoString = %q", OID(7).GoString())
	}
	if Ref(9).OID() != OID(9) {
		t.Error("Ref.OID broken")
	}
}

func TestValueKeyInjective(t *testing.T) {
	// valueKey must distinguish values across and within kinds.
	mk := func(tag uint8, n int32, s string) Value {
		switch tag % 6 {
		case 0:
			return String(s)
		case 1:
			return Integer(n)
		case 2:
			return Decimal(float64(n) / 2)
		case 3:
			return Bool(n%2 == 0)
		case 4:
			return Char(rune(n%1000 + 1))
		default:
			return Ref(OID(uint64(uint32(n)) + 1))
		}
	}
	f := func(t1, t2 uint8, n1, n2 int32, s1, s2 string) bool {
		a, b := mk(t1, n1, s1), mk(t2, n2, s2)
		if valueKey(a) == valueKey(b) {
			return ValuesEqual(a, b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if valueKey(nil) != "N" {
		t.Errorf("valueKey(nil) = %q", valueKey(nil))
	}
}

func TestObjectString(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	part := mustTuple(t, s, "PART", nil, []Attribute{{"Name", str}})
	set, _ := s.DefineCollection("PARTSET", SetType, part)
	list, _ := s.DefineCollection("PARTLIST", ListType, part)
	ob := NewObjectBase(s)

	p := ob.MustNew(part)
	ob.MustSetAttr(p.ID(), "Name", String("Door"))
	if got := p.String(); got != fmt.Sprintf("%s:PART[Name: \"Door\"]", p.ID()) {
		t.Errorf("tuple String = %q", got)
	}
	so := ob.MustNew(set)
	ob.MustInsertIntoSet(so.ID(), Ref(p.ID()))
	if got := so.String(); got != fmt.Sprintf("%s:PARTSET{%s}", so.ID(), p.ID()) {
		t.Errorf("set String = %q", got)
	}
	lo := ob.MustNew(list)
	ob.AppendToList(lo.ID(), Ref(p.ID()))
	if got := lo.String(); got != fmt.Sprintf("%s:PARTLIST<%s>", lo.ID(), p.ID()) {
		t.Errorf("list String = %q", got)
	}
	// Accessors exercised.
	if p.Type() != part {
		t.Error("Type() broken")
	}
	if got, _ := ob.Get(p.ID()); got != p {
		t.Error("Get() broken")
	}
	if ob.Count() != 3 {
		t.Errorf("Count = %d", ob.Count())
	}
	if ob.Schema() != s {
		t.Error("Schema() broken")
	}
}

func TestTypeIntrospection(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	base := mustTuple(t, s, "BASE", nil, []Attribute{{"Name", str}})
	if str.AtomicKind() != KindString || base.AtomicKind() != KindInvalid {
		t.Error("AtomicKind broken")
	}
	for _, k := range []TypeKind{AtomicType, TupleType, SetType, ListType, TypeKind(99)} {
		if k.String() == "" {
			t.Errorf("TypeKind(%d) has empty name", k)
		}
	}
	if base.String() != "BASE" {
		t.Errorf("Type.String = %q", base.String())
	}
}

func TestPathIntrospection(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	manu := mustTuple(t, s, "MANUFACTURER", nil, []Attribute{{"Location", str}})
	tool := mustTuple(t, s, "TOOL", nil, []Attribute{{"ManufacturedBy", manu}})
	p := MustResolvePath(tool, "ManufacturedBy", "Location")
	steps := p.Steps()
	if len(steps) != 2 || steps[0].Attr != "ManufacturedBy" {
		t.Errorf("Steps = %v", steps)
	}
	// Steps returns a copy.
	steps[0].Attr = "X"
	if p.Step(1).Attr != "ManufacturedBy" {
		t.Error("Steps aliases internal storage")
	}
}

func TestMustHelpersPanic(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := NewSchema()
	assertPanics("MustLookup", func() { s.MustLookup("NOPE") })
	assertPanics("MustParseSchema", func() { MustParseSchema("garbage") })
	assertPanics("MustResolvePath", func() { MustResolvePath(nil, "X") })
	ob := NewObjectBase(s)
	assertPanics("MustNew", func() { ob.MustNew(s.MustLookup("STRING")) })
	assertPanics("MustSetAttr", func() { ob.MustSetAttr(99, "X", nil) })
	assertPanics("MustInsertIntoSet", func() { ob.MustInsertIntoSet(99, String("x")) })
}
