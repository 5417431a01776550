package relation

import (
	"strings"
	"testing"

	"asr/internal/gom"
)

func TestTupleBasics(t *testing.T) {
	a := OIDs(1, 2, 0)
	if a[2] != nil {
		t.Error("NilOID must map to NULL")
	}
	b := Tuple{gom.Ref(1), gom.Ref(2), nil}
	if !a.Equal(b) {
		t.Errorf("%v != %v", a, b)
	}
	if a.Key() != b.Key() {
		t.Error("keys differ for equal tuples")
	}
	if !(Tuple{nil, nil}).IsAllNull() || a.IsAllNull() {
		t.Error("IsAllNull broken")
	}
	c := a.Clone()
	c[0] = gom.Ref(9)
	if a[0].(gom.Ref) != gom.Ref(1) {
		t.Error("Clone aliases storage")
	}
	if got := OIDs(1, 0).String(); got != "(i1, NULL)" {
		t.Errorf("String = %q", got)
	}
}

func TestRelationSetSemantics(t *testing.T) {
	r := New("R", "A", "B")
	r.MustInsert(OIDs(1, 2))
	r.MustInsert(OIDs(1, 2))
	r.MustInsert(OIDs(1, 3))
	if r.Cardinality() != 2 {
		t.Fatalf("cardinality = %d, want 2", r.Cardinality())
	}
	if !r.Contains(OIDs(1, 2)) || r.Contains(OIDs(9, 9)) {
		t.Error("Contains broken")
	}
	if err := r.Insert(OIDs(1)); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestTuplesDeterministicOrder(t *testing.T) {
	r := New("R", "A")
	r.MustInsert(OIDs(3))
	r.MustInsert(OIDs(1))
	r.MustInsert(OIDs(2))
	first := r.Tuples()
	second := r.Tuples()
	for i := range first {
		if !first[i].Equal(second[i]) {
			t.Fatal("iteration order not deterministic")
		}
	}
}

func TestProject(t *testing.T) {
	r := New("R", "A", "B", "C")
	r.MustInsert(OIDs(1, 2, 3))
	r.MustInsert(OIDs(1, 2, 4))
	r.MustInsert(Tuple{nil, nil, gom.Ref(5)})
	p, err := r.Project("P", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// (1,2) dedups; (NULL,NULL) is dropped.
	if p.Cardinality() != 1 {
		t.Fatalf("projection = %v", p.Tuples())
	}
	if _, err := r.Project("P", 1, 5); err == nil {
		t.Error("out-of-range projection accepted")
	}
	if _, err := r.Project("P", 2, 1); err == nil {
		t.Error("inverted projection accepted")
	}
}

func TestNaturalJoin(t *testing.T) {
	l := New("L", "A", "B")
	l.MustInsert(OIDs(1, 10))
	l.MustInsert(OIDs(2, 20))
	l.MustInsert(Tuple{gom.Ref(3), nil}) // NULL join value: no match
	r := New("R", "B", "C")
	r.MustInsert(OIDs(10, 100))
	r.MustInsert(OIDs(10, 101))
	r.MustInsert(OIDs(30, 300))

	j, err := Join(NaturalJoin, "J", l, r)
	if err != nil {
		t.Fatal(err)
	}
	if j.Arity() != 3 {
		t.Fatalf("arity = %d", j.Arity())
	}
	want := []Tuple{OIDs(1, 10, 100), OIDs(1, 10, 101)}
	if j.Cardinality() != len(want) {
		t.Fatalf("join = %v", j.Tuples())
	}
	for _, w := range want {
		if !j.Contains(w) {
			t.Errorf("missing %v", w)
		}
	}
}

func TestOuterJoins(t *testing.T) {
	l := New("L", "A", "B")
	l.MustInsert(OIDs(1, 10)) // matches
	l.MustInsert(OIDs(2, 20)) // dangling left
	r := New("R", "B", "C")
	r.MustInsert(OIDs(10, 100)) // matches
	r.MustInsert(OIDs(30, 300)) // dangling right

	full, _ := Join(FullOuterJoin, "F", l, r)
	wantFull := []Tuple{
		OIDs(1, 10, 100),
		{gom.Ref(2), gom.Ref(20), nil},
		{nil, gom.Ref(30), gom.Ref(300)},
	}
	if full.Cardinality() != 3 {
		t.Fatalf("full = %v", full.Tuples())
	}
	for _, w := range wantFull {
		if !full.Contains(w) {
			t.Errorf("full missing %v", w)
		}
	}

	left, _ := Join(LeftOuterJoin, "L", l, r)
	if left.Cardinality() != 2 || !left.Contains(Tuple{gom.Ref(2), gom.Ref(20), nil}) {
		t.Errorf("left = %v", left.Tuples())
	}
	if left.Contains(Tuple{nil, gom.Ref(30), gom.Ref(300)}) {
		t.Error("left outer join kept dangling right tuple")
	}

	right, _ := Join(RightOuterJoin, "R", l, r)
	if right.Cardinality() != 2 || !right.Contains(Tuple{nil, gom.Ref(30), gom.Ref(300)}) {
		t.Errorf("right = %v", right.Tuples())
	}
}

func TestOuterJoinNullPadding(t *testing.T) {
	// A left tuple ending in NULL must be padded, never matched.
	l := New("L", "A", "B")
	l.MustInsert(Tuple{gom.Ref(1), nil})
	r := New("R", "B", "C")
	r.MustInsert(Tuple{nil, gom.Ref(2)}) // NULL first column: never matches either
	full, _ := Join(FullOuterJoin, "F", l, r)
	if full.Cardinality() != 2 {
		t.Fatalf("full = %v", full.Tuples())
	}
	if !full.Contains(Tuple{gom.Ref(1), nil, nil}) || !full.Contains(Tuple{nil, nil, gom.Ref(2)}) {
		t.Errorf("padding wrong: %v", full.Tuples())
	}
}

func TestJoinChainAssociativity(t *testing.T) {
	// E0=(a,b), E1=(b,c) with a dangling E1 start, E2=(c,d).
	e0 := New("E0", "S0", "S1")
	e0.MustInsert(OIDs(1, 10))
	e1 := New("E1", "S1", "S2")
	e1.MustInsert(OIDs(10, 100))
	e1.MustInsert(OIDs(11, 110)) // not reachable from E0
	e2 := New("E2", "S2", "S3")
	e2.MustInsert(OIDs(100, 1000))

	leftC, err := JoinChain(LeftOuterJoin, "left", true, e0, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	// Left-complete: everything originating in t_0 survives; dangling E1
	// row disappears.
	if leftC.Cardinality() != 1 || !leftC.Contains(OIDs(1, 10, 100, 1000)) {
		t.Errorf("left chain = %v", leftC.Tuples())
	}

	rightC, err := JoinChain(RightOuterJoin, "right", false, e0, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	// Right-complete: paths reaching t_3 survive; (11,110) leads only to
	// a dangling end and disappears under right-association.
	if rightC.Cardinality() != 1 || !rightC.Contains(OIDs(1, 10, 100, 1000)) {
		t.Errorf("right chain = %v", rightC.Tuples())
	}

	fullC, err := JoinChain(FullOuterJoin, "full", true, e0, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if fullC.Cardinality() != 2 || !fullC.Contains(Tuple{nil, gom.Ref(11), gom.Ref(110), nil}) {
		t.Errorf("full chain = %v", fullC.Tuples())
	}

	single, err := JoinChain(NaturalJoin, "one", true, e0)
	if err != nil || single.Cardinality() != 1 {
		t.Errorf("singleton chain broken: %v %v", single, err)
	}
	if _, err := JoinChain(NaturalJoin, "none", true); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestRelationEqualCloneString(t *testing.T) {
	r := New("R", "A", "B")
	r.MustInsert(OIDs(1, 2))
	c := r.Clone("C")
	if !r.Equal(c) {
		t.Error("clone not equal")
	}
	c.MustInsert(OIDs(3, 4))
	if r.Equal(c) {
		t.Error("Equal ignores cardinality")
	}
	s := r.String()
	if !strings.Contains(s, "i1") || !strings.Contains(s, "R (1 tuples)") {
		t.Errorf("String = %q", s)
	}
}
