package dump

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
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
	saved := bytes.Clone(buf.Bytes())
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var again bytes.Buffer
	if err := Save(back, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Error("saving the reloaded base changed its bytes")
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

// allKinds is a base holding a value of every kind, a reference, a list
// and a bound variable.
func allKinds(tb testing.TB) *gom.ObjectBase {
	tb.Helper()
	schema, _, err := gom.ParseSchema(`
		type T is [S: STRING, N: INTEGER, D: DECIMAL, B: BOOL, C: CHAR, Next: T];
		type TL is <T>;
	`)
	if err != nil {
		tb.Fatal(err)
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
	ob.MustSetAttr(b.ID(), "B", gom.Bool(false))
	lst := ob.MustNew(schema.MustLookup("TL"))
	ob.AppendToList(lst.ID(), gom.Ref(b.ID()))
	ob.AppendToList(lst.ID(), gom.Ref(a.ID()))
	ob.BindVar("root", a.ID())
	return ob
}

func TestRoundTripAllValueKinds(t *testing.T) {
	back := roundTrip(t, allKinds(t))
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

// forge assembles a snapshot field by field; seal appends a valid
// checksum, so that a case fails on the fault it plants and not on the
// CRC.
type forge []byte

func (f forge) u(xs ...uint64) forge {
	for _, x := range xs {
		f = binary.AppendUvarint(f, x)
	}
	return f
}

func (f forge) s(strs ...string) forge {
	for _, s := range strs {
		f = append(f.u(uint64(len(s))), s...)
	}
	return f
}

func (f forge) raw(b ...byte) forge { return append(f, b...) }

func (f forge) seal() []byte {
	return binary.LittleEndian.AppendUint32(f, crc32.Checksum(f, castagnoli))
}

// head is a snapshot's magic, version, schema text and type-name table.
func head(schema string, types ...string) forge {
	return forge(magic).u(formatVersion).s(schema).u(uint64(len(types))).s(types...)
}

// TestLoadErrors plants one fault per case in an otherwise well-formed
// snapshot and checks Load refuses it for that fault.
func TestLoadErrors(t *testing.T) {
	const str, self = "type A is [X: STRING];", "type A is [B: A];"
	one := func(schema string) forge { return head(schema, "A").u(1, 0) } // one A object
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"empty", "bad magic", nil},
		{"bad magic", "bad magic", forge("GOMSNAQ").u(formatVersion).s("").u(0, 0, 0).seal()},
		{"json", "format-1 JSON dump", []byte(`{"version": 1, "schema": ""}`)},
		{"bad version", "unsupported format version 99", forge(magic).u(99).s("").u(0, 0, 0).seal()},
		{"bad schema text", "schema", head("type A is [X: NOPE];").u(0, 0).seal()},
		{"unknown type name", `unknown type "NOPE"`, head(str, "NOPE").u(0, 0).seal()},
		{"type index out of range", "type index 1 out of range", head(str, "A").u(1, 1).u(0, 0, 0).seal()},
		{"reference ordinal out of range", "object ordinal 99 out of range", one(self).u(1, 0).raw(kindRef).u(99).u(0, 0).seal()},
		{"unknown value kind", "unknown value kind 119", one(str).u(1, 0).raw(119).u(0, 0).seal()},
		{"attribute slot out of range", "attribute slot 3 out of range", one(str).u(1, 3).raw(kindString).s("x").u(0, 0).seal()},
		{"elements on a tuple type", "elements on tuple-structured type A", one(str).u(0, 1).raw(kindString).s("x").u(0).seal()},
		{"variable bound to an unknown object", "object ordinal 99 out of range", head(str, "A").u(0, 1).s("v").u(99).seal()},
		{"wrong value type", "cannot store INTEGER value", one(str).u(1, 0).raw(kindInteger).u(2).u(0, 0).seal()},
		{"NaN", "not a finite number", head("type A is [D: DECIMAL];", "A").u(1, 0, 1, 0).raw(kindDecimal).raw(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...).u(0, 0).seal()},
		{"CHAR out of range", "CHAR 4294967296 out of range", head("type A is [C: CHAR];", "A").u(1, 0, 1, 0).raw(kindChar).raw(binary.AppendVarint(nil, 1<<32)...).u(0, 0).seal()},
		{"checksum", "checksum mismatch", append(one(str).u(0, 0, 0), 0, 0, 0, 0)},
		{"trailing bytes", "bytes after the checksum", append(one(str).u(0, 0, 0).seal(), 0)},
	}
	for _, tc := range cases {
		_, err := Load(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// The forged pieces do make a snapshot once the fault is gone.
	if _, err := Load(bytes.NewReader(one(self).u(1, 0).raw(kindRef).u(0).u(0, 1).s("v").u(0).seal())); err != nil {
		t.Errorf("well-formed forged snapshot: %v", err)
	}
}

// TestLoadRefusesDamage: a snapshot cut short anywhere, or with any one
// byte changed, is refused — the checksum covers what the structure
// does not.
func TestLoadRefusesDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(paperdb.BuildCompany().Base, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for n := range len(good) {
		if _, err := Load(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("the %d-byte prefix of a %d-byte snapshot loaded", n, len(good))
		}
	}
	bad := bytes.Clone(good)
	for i := range bad {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			bad[i] ^= flip
			if _, err := Load(bytes.NewReader(bad)); err == nil {
				t.Fatalf("byte %d xor %#x loaded", i, flip)
			}
			bad[i] ^= flip
		}
	}
}

// hugeClaims are snapshots whose counts or lengths claim 2⁶⁰ items.
func hugeClaims() map[string][]byte {
	const huge = 1 << 60
	str := "type A is [X: STRING]; type AS is {A};"
	return map[string][]byte{
		"schema length": forge(magic).u(formatVersion, huge).seal(),
		"type count":    head(str).u(huge).seal(),
		"object count":  head(str, "A").u(huge, 0).seal(),
		"attr count":    head(str, "A").u(1, 0, huge).seal(),
		"string length": head(str, "A").u(1, 0, 1, 0).raw(kindString).u(huge).raw('x').seal(),
		"element count": head(str, "AS").u(1, 0, 0, huge).seal(),
		"var count":     head(str).u(0, 0, huge).seal(),
	}
}

// TestLoadHugeClaims: a count or length claiming 2⁶⁰ fails on the bytes
// that are not there, after allocating what the bytes that are there
// need, not what the claim would.
func TestLoadHugeClaims(t *testing.T) {
	for name, data := range hugeClaims() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: loaded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Load allocated %d bytes for a %d-byte input", name, grew, len(data))
		}
	}
}

// FuzzLoad: no input panics Load, and an input it accepts re-saves to a
// snapshot that reloads to an equal base (one that saves to the same
// bytes again).
func FuzzLoad(f *testing.F) {
	for _, ob := range []*gom.ObjectBase{paperdb.BuildCompany().Base, allKinds(f)} {
		var buf bytes.Buffer
		if err := Save(ob, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, data := range hugeClaims() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ob, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := Save(ob, &once); err != nil {
			t.Fatalf("an accepted snapshot does not re-save: %v", err)
		}
		back, err := Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a re-saved snapshot does not load: %v", err)
		}
		if err := Save(back, &twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("the reloaded base differs from the accepted one (err %v)", err)
		}
	})
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
// differ), so a set may hold both and an attribute keeps its sign —
// its bits — through Save and Load.
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

	back := roundTrip(t, ob) // and the re-save is byte-identical
	for name, want := range map[string]gom.Decimal{"neg": negZero, "pos": 0} {
		id, _ := back.Var(name)
		o, _ := back.Get(id)
		v, _ := o.Attr("D")
		if d, ok := v.(gom.Decimal); !ok || math.Float64bits(float64(d)) != math.Float64bits(float64(want)) {
			t.Errorf("%s.D = %#v after reload, want the bits of %v", name, v, want)
		}
	}
	id, _ := back.Var("set")
	o, _ := back.Get(id)
	if o.Len() != 2 || !o.Contains(negZero) || !o.Contains(gom.Decimal(0)) {
		t.Errorf("set after reload = %v, want both zeros", o.Elements())
	}
}
