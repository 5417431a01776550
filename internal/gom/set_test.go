package gom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fmtKey is the canonical key as first written, with fmt: the order of
// Elements — and so of every dump and every seeded stream built from a
// set — is the order of these strings, which valueKey must reproduce.
func fmtKey(v Value) string {
	switch w := v.(type) {
	case nil:
		return "N"
	case Ref:
		return "r" + OID(w).String()
	case String:
		return "s" + string(w)
	case Integer:
		return "i" + fmt.Sprint(int64(w))
	case Decimal:
		return "d" + fmt.Sprint(float64(w))
	case Bool:
		return "b" + fmt.Sprint(bool(w))
	case Char:
		return "c" + fmt.Sprint(int32(w))
	default:
		return "?" + v.String()
	}
}

// checkSet holds a set object to a model keyed by fmtKey: the same
// length, Contains exactly on the model's keys, Elements in key order,
// AppendElements the same elements, and a key index exactly when the
// set has grown past setScanMax and not yet shrunk below half of it.
func checkSet(t *testing.T, set *Object, model map[string]Value, probes []Value, indexed bool) {
	t.Helper()
	if set.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", set.Len(), len(model))
	}
	for _, p := range probes {
		if _, want := model[fmtKey(p)]; set.Contains(p) != want {
			t.Fatalf("Contains(%s %v) = %v, want %v", p.Kind(), p, !want, want)
		}
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := set.Elements()
	if len(got) != len(keys) {
		t.Fatalf("Elements holds %d, want %d", len(got), len(keys))
	}
	for i, e := range got {
		if fmtKey(e) != keys[i] {
			t.Fatalf("Elements[%d] = %v (key %q), want key %q", i, e, fmtKey(e), keys[i])
		}
	}
	app := set.AppendElements(nil)
	slices.SortFunc(app, compareKeys)
	if fmt.Sprint(app) != fmt.Sprint(got) {
		t.Fatalf("AppendElements = %v, Elements = %v", app, got)
	}
	if (set.index != nil) != indexed {
		t.Fatalf("at %d elements: indexed = %v, want %v", len(model), set.index != nil, indexed)
	}
}

// TestSetMembershipIsValueKeyEquality: InsertIntoSet, RemoveFromSet and
// Contains agree with canonical-key equality across kinds — two zeros,
// Integer(1) ≠ Decimal(1), Char ≠ Integer, and no NaN or infinity is
// ever a member (they cannot be stored) — whether the set
// finds members by scanning or through its key index, as it grows past
// the scan size and shrinks back under it, with Elements in key order
// throughout.
func TestSetMembershipIsValueKeyEquality(t *testing.T) {
	s := NewSchema()
	decs, err := s.DefineCollection("DecSET", SetType, s.MustLookup("DECIMAL"))
	if err != nil {
		t.Fatal(err)
	}
	ints, err := s.DefineCollection("IntSET", SetType, s.MustLookup("INTEGER"))
	if err != nil {
		t.Fatal(err)
	}
	chars, err := s.DefineCollection("CharSET", SetType, s.MustLookup("CHAR"))
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObjectBase(s)

	nan2 := Decimal(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)) // another NaN payload
	negZero := Decimal(math.Copysign(0, -1))
	probes := []Value{
		Decimal(math.NaN()), nan2, negZero, Decimal(0), Decimal(1), Decimal(math.Inf(1)), Decimal(math.Inf(-1)),
		Integer(1), Integer(0), Integer(65), Char(65), Char(-1), Char(0xD800), Char(0xFFFD), String("1"), Bool(true), Ref(1),
	}
	for _, v := range probes {
		if valueKey(v) != fmtKey(v) {
			t.Errorf("valueKey(%s %v) = %q, want %q", v.Kind(), v, valueKey(v), fmtKey(v))
		}
	}

	for _, tc := range []struct {
		typ *Type
		ins []Value // inserted in order; repeats of a key are no-ops
	}{
		{decs, []Value{negZero, Decimal(0), Decimal(1), Decimal(0)}},
		{ints, []Value{Integer(1), Integer(0), Integer(65), Integer(1)}},
		{chars, []Value{Char(65), Char(-1), Char(0xD800), Char(0xFFFD), Char(65)}},
	} {
		set := ob.MustNew(tc.typ)
		model := map[string]Value{}
		for _, v := range tc.ins {
			ob.MustInsertIntoSet(set.ID(), v)
			if _, dup := model[fmtKey(v)]; !dup {
				model[fmtKey(v)] = v
			}
			checkSet(t, set, model, probes, false)
		}
		// A value of another kind is never a member: removing it is a no-op.
		for _, v := range probes {
			if v.Kind() != tc.typ.Elem().AtomicKind() {
				if err := ob.RemoveFromSet(set.ID(), v); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkSet(t, set, model, probes, false)
		for _, v := range tc.ins {
			if err := ob.RemoveFromSet(set.ID(), v); err != nil {
				t.Fatal(err)
			}
			delete(model, fmtKey(v))
			checkSet(t, set, model, probes, false)
		}
	}

	// Grow a DECIMAL set past the scan size and shrink it back, removing in
	// random order so the last element is swapped into many positions.
	set := ob.MustNew(decs)
	model := map[string]Value{}
	var vals []Value
	for i := 0; i < 3*setScanMax; i++ {
		vals = append(vals, Decimal(float64(i-setScanMax)/4))
	}
	vals = append(vals, negZero)
	grow := append(slices.Clone(probes), vals...)
	indexed := false
	for _, v := range vals {
		ob.MustInsertIntoSet(set.ID(), v)
		ob.MustInsertIntoSet(set.ID(), v) // no-op
		model[fmtKey(v)] = v
		indexed = indexed || len(model) > setScanMax
		checkSet(t, set, model, grow, indexed)
	}
	for _, v := range []Value{Decimal(math.NaN()), nan2, Decimal(math.Inf(1)), Decimal(math.Inf(-1))} {
		if err := ob.InsertIntoSet(set.ID(), v); err == nil {
			t.Fatalf("InsertIntoSet(%v) stored a non-finite DECIMAL", v)
		}
	}
	checkSet(t, set, model, grow, true)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		if err := ob.RemoveFromSet(set.ID(), v); err != nil {
			t.Fatal(err)
		}
		delete(model, fmtKey(v))
		indexed = indexed && len(model) >= setScanMax/2
		checkSet(t, set, model, grow, indexed)
	}
}
