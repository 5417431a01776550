package gom

import "testing"

// TestFollow tables the one step dereference every reader of the object
// graph shares (Definition 3.3): what a step leads to, what it reports
// as the set, and that dangling references lead nowhere.
func TestFollow(t *testing.T) {
	s, _, err := ParseSchema(`
		type Division is [Name: STRING, Head: Product, Manufactures: ProdSET];
		type ProdSET is {Product};
		type Product is [Name: STRING];
	`)
	if err != nil {
		t.Fatal(err)
	}
	div := s.MustLookup("Division")
	step := func(attr string) PathStep { return MustResolvePath(div, attr).Step(1) }

	ob := NewObjectBase(s)
	newDiv := func() *Object { return ob.MustNew(div) }
	newProd := func() Ref { return Ref(ob.MustNew(s.MustLookup("Product")).ID()) }
	newSet := func(elems ...Ref) Ref {
		set := ob.MustNew(s.MustLookup("ProdSET"))
		for _, e := range elems {
			ob.MustInsertIntoSet(set.ID(), e)
		}
		return Ref(set.ID())
	}

	null := newDiv()

	named := newDiv()
	ob.MustSetAttr(named.ID(), "Name", String("Auto"))

	live, gone := newProd(), newProd()
	headed := newDiv()
	ob.MustSetAttr(headed.ID(), "Head", live)
	beheaded := newDiv()
	ob.MustSetAttr(beheaded.ID(), "Head", gone)

	mixedSet := newSet(live, gone)
	mixed := newDiv()
	ob.MustSetAttr(mixed.ID(), "Manufactures", mixedSet)

	emptySet := newSet()
	empty := newDiv()
	ob.MustSetAttr(empty.ID(), "Manufactures", emptySet)

	goneSet := newSet(live)
	orphan := newDiv()
	ob.MustSetAttr(orphan.ID(), "Manufactures", goneSet)

	for _, id := range []OID{gone.OID(), goneSet.OID()} {
		if err := ob.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		o       *Object
		attr    string
		wantSet Value
		want    []Value
	}{
		{"NULL single-valued attribute", null, "Head", nil, nil},
		{"NULL set-valued attribute", null, "Manufactures", nil, nil},
		{"single-valued atomic", named, "Name", nil, []Value{String("Auto")}},
		{"single-valued reference", headed, "Head", nil, []Value{live}},
		{"single-valued reference to a deleted object", beheaded, "Head", nil, nil},
		{"live set with a deleted element", mixed, "Manufactures", mixedSet, []Value{live}},
		{"live empty set", empty, "Manufactures", emptySet, nil},
		{"reference to a deleted set object", orphan, "Manufactures", nil, nil},
	}
	kept := String("kept")
	for _, tc := range cases {
		set, got := tc.o.Follow(step(tc.attr), []Value{kept})
		if !ValuesEqual(set, tc.wantSet) {
			t.Errorf("%s: set = %v, want %v", tc.name, set, tc.wantSet)
		}
		if len(got) == 0 || got[0] != kept {
			t.Errorf("%s: dst prefix lost: %v", tc.name, got)
			continue
		}
		got = got[1:]
		if len(got) != len(tc.want) {
			t.Errorf("%s: leads to %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if !ValuesEqual(got[i], tc.want[i]) {
				t.Errorf("%s: leads to %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

func mustGet(t *testing.T, ob *ObjectBase, id OID) *Object {
	t.Helper()
	o, ok := ob.Get(id)
	if !ok {
		t.Fatalf("object %s not found", id)
	}
	return o
}
