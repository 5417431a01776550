package dump

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/storage"
)

func roundTrip(t *testing.T, ob *gom.ObjectBase) *gom.ObjectBase {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(ob, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v\ndump:\n%s", err, buf.String())
	}
	return back
}

func TestRoundTripCompany(t *testing.T) {
	c := paperdb.BuildCompany()
	back := roundTrip(t, c.Base)

	if back.Count() != c.Base.Count() {
		t.Fatalf("object count %d, want %d", back.Count(), c.Base.Count())
	}
	// Vars restored.
	mercedes, ok := back.Var("Mercedes")
	if !ok {
		t.Fatal("Mercedes var lost")
	}
	set, _ := back.Get(mercedes)
	if set.Len() != 3 {
		t.Fatalf("Mercedes has %d divisions", set.Len())
	}
	// Rebuild the index on the restored base; the paper's Query 2 must
	// still answer Auto and Truck.
	divisionT := back.Schema().MustLookup("Division")
	path := gom.MustResolvePath(divisionT, "Manufactures", "Composition", "Name")
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	ix, err := asr.Build(back, path, asr.Full, asr.BinaryDecomposition(5), pool)
	if err != nil {
		t.Fatal(err)
	}
	divs, err := ix.Query(context.Background(), false, 0, 3, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, id := range asr.OIDsOf(divs) {
		o, _ := back.Get(id)
		nm, _ := o.Attr("Name")
		names[gom.ValueString(nm)] = true
	}
	if !names[`"Auto"`] || !names[`"Truck"`] || len(names) != 2 {
		t.Fatalf("Query 2 after restore = %v", names)
	}
	if errs := back.CheckIntegrity(); len(errs) != 0 {
		t.Fatalf("integrity after restore: %v", errs)
	}
}

func TestRoundTripAllValueKinds(t *testing.T) {
	schema, _, err := gom.ParseSchema(`
		type T is [S: STRING, N: INTEGER, D: DECIMAL, B: BOOL, C: CHAR, Next: T];
		type TL is <T>;
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob := gom.NewObjectBase(schema)
	a := ob.MustNew(schema.MustLookup("T"))
	b := ob.MustNew(schema.MustLookup("T"))
	ob.MustSetAttr(a.ID(), "S", gom.String("päth \"quoted\""))
	ob.MustSetAttr(a.ID(), "N", gom.Integer(-42))
	ob.MustSetAttr(a.ID(), "D", gom.Decimal(2.75))
	ob.MustSetAttr(a.ID(), "B", gom.Bool(true))
	ob.MustSetAttr(a.ID(), "C", gom.Char('ß'))
	ob.MustSetAttr(a.ID(), "Next", gom.Ref(b.ID()))
	lst := ob.MustNew(schema.MustLookup("TL"))
	ob.AppendToList(lst.ID(), gom.Ref(b.ID()))
	ob.AppendToList(lst.ID(), gom.Ref(a.ID()))
	ob.BindVar("root", a.ID())

	back := roundTrip(t, ob)
	rootID, ok := back.Var("root")
	if !ok {
		t.Fatal("root var lost")
	}
	o, _ := back.Get(rootID)
	checks := map[string]gom.Value{
		"S": gom.String("päth \"quoted\""),
		"N": gom.Integer(-42),
		"D": gom.Decimal(2.75),
		"B": gom.Bool(true),
		"C": gom.Char('ß'),
	}
	for attr, want := range checks {
		if v, _ := o.Attr(attr); !gom.ValuesEqual(v, want) {
			t.Errorf("%s = %v, want %v", attr, v, want)
		}
	}
	next, _ := o.Attr("Next")
	ref, ok := next.(gom.Ref)
	if !ok {
		t.Fatal("Next lost")
	}
	if _, live := back.Get(ref.OID()); !live {
		t.Error("Next dangles after restore")
	}
	// List order preserved.
	tl := back.Schema().MustLookup("TL")
	lists := back.Extent(tl, false)
	if len(lists) != 1 {
		t.Fatalf("lists = %v", lists)
	}
	lo, _ := back.Get(lists[0])
	ids := lo.ElementOIDs()
	if len(ids) != 2 || ids[1] != rootID {
		t.Errorf("list order lost: %v (root %v)", ids, rootID)
	}
}

func TestRoundTripInheritance(t *testing.T) {
	schema, _, err := gom.ParseSchema(`
		type TOOL is [Function: STRING];
		type LASER is supertypes (TOOL) [Wattage: INTEGER];
		type ARM is [MountedTool: TOOL];
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob := gom.NewObjectBase(schema)
	laser := ob.MustNew(schema.MustLookup("LASER"))
	ob.MustSetAttr(laser.ID(), "Function", gom.String("cutting"))
	ob.MustSetAttr(laser.ID(), "Wattage", gom.Integer(900))
	arm := ob.MustNew(schema.MustLookup("ARM"))
	ob.MustSetAttr(arm.ID(), "MountedTool", gom.Ref(laser.ID()))

	back := roundTrip(t, ob)
	laserT := back.Schema().MustLookup("LASER")
	ids := back.Extent(laserT, false)
	if len(ids) != 1 {
		t.Fatalf("lasers = %v", ids)
	}
	o, _ := back.Get(ids[0])
	if v, _ := o.Attr("Function"); !gom.ValuesEqual(v, gom.String("cutting")) {
		t.Error("inherited attribute lost")
	}
	// The subtype instance still satisfies the TOOL-typed slot.
	armT := back.Schema().MustLookup("ARM")
	arms := back.Extent(armT, false)
	ao, _ := back.Get(arms[0])
	if ao.AttrOID("MountedTool") != ids[0] {
		t.Error("subtype reference lost")
	}
}

func TestLoadErrors(t *testing.T) {
	bad := []string{
		``,
		`{"version": 99, "schema": ""}`,
		`{"version": 1, "schema": "type A is [X: NOPE];"}`,
		`{"version": 1, "schema": "type A is [X: STRING];", "objects": [{"id": 1, "type": "NOPE"}]}`,
		`{"version": 1, "schema": "type A is [X: STRING];", "objects": [{"id": 1, "type": "A"}, {"id": 1, "type": "A"}]}`,
		`{"version": 1, "schema": "type A is [B: A];", "objects": [{"id": 1, "type": "A", "attrs": {"B": {"kind": "ref", "r": 99}}}]}`,
		`{"version": 1, "schema": "type A is [X: STRING];", "objects": [{"id": 1, "type": "A", "attrs": {"X": {"kind": "wat"}}}]}`,
		`{"version": 1, "schema": "type A is [X: STRING];", "vars": [{"name": "v", "id": 99}]}`,
		`{"version": 1, "schema": "type A is [X: STRING];", "objects": [{"id": 1, "type": "A", "elems": [{"kind": "int", "i": 1}]}]}`,
	}
	for i, src := range bad {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	c := paperdb.BuildCompany()
	var a, b bytes.Buffer
	if err := Save(c.Base, &a); err != nil {
		t.Fatal(err)
	}
	if err := Save(c.Base, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two saves of the same base differ")
	}
}

// TestRoundTripDecimalZeros: -0 and 0 are two DECIMALs (their bits
// differ), so a set may hold both and an attribute keeps its sign
// through Save and Load. 0 is written as before, with no f and no neg.
func TestRoundTripDecimalZeros(t *testing.T) {
	schema, _, err := gom.ParseSchema(`type T is [D: DECIMAL]; type DS is {DECIMAL};`)
	if err != nil {
		t.Fatal(err)
	}
	negZero := gom.Decimal(math.Copysign(0, -1))
	ob := gom.NewObjectBase(schema)
	neg, pos := ob.MustNew(schema.MustLookup("T")), ob.MustNew(schema.MustLookup("T"))
	ob.MustSetAttr(neg.ID(), "D", negZero)
	ob.MustSetAttr(pos.ID(), "D", gom.Decimal(0))
	set := ob.MustNew(schema.MustLookup("DS"))
	ob.MustInsertIntoSet(set.ID(), negZero)
	ob.MustInsertIntoSet(set.ID(), gom.Decimal(0))
	ob.BindVar("neg", neg.ID())
	ob.BindVar("pos", pos.ID())
	ob.BindVar("set", set.ID())

	var buf bytes.Buffer
	if err := Save(ob, &buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	if strings.Count(saved, `"neg": true`) != 2 || strings.Contains(saved, `"f"`) {
		t.Errorf("want neg on the two -0 records and no f anywhere:\n%s", saved)
	}
	back := roundTrip(t, ob)
	for name, want := range map[string]gom.Value{"neg": negZero, "pos": gom.Decimal(0)} {
		id, _ := back.Var(name)
		o, _ := back.Get(id)
		if v, _ := o.Attr("D"); !gom.ValuesEqual(v, want) {
			t.Errorf("%s.D = %v after reload, want %v", name, v, want)
		}
	}
	id, _ := back.Var("set")
	o, _ := back.Get(id)
	if o.Len() != 2 || !o.Contains(negZero) || !o.Contains(gom.Decimal(0)) {
		t.Errorf("set after reload = %v, want both zeros", o.Elements())
	}
	var again bytes.Buffer
	if err := Save(back, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != saved {
		t.Error("saving the reloaded base changed its bytes")
	}
}
