// Package dump serializes a GOM object base to a binary snapshot and
// restores it: the schema as its own §2.1 declaration text, which
// round-trips through the parser, then the objects and the bound
// database variables. Access support relations are derived data, rebuilt
// or reopened after a load (package asr), not persisted here. Object
// identifiers are remapped on load: the restored base assigns fresh OIDs
// in the snapshot's order, and every reference and variable binding
// points to the corresponding restored object.
//
// A snapshot is, with every count, length, index and ordinal a uvarint:
// the magic "GOMSNAP" and format version 2; the schema text; a table of
// type names; a count of objects and each one's type index, in OID
// order; each object's body in that order — a count of non-NULL
// attributes, each a slot number and a value, then a count of elements
// and each value; a count of variables, each a name and an object
// ordinal; and the CRC-32C of all that, little-endian. A value is a kind
// byte and a payload: a STRING's length and bytes, an INTEGER's or a
// CHAR's varint, a DECIMAL's IEEE-754 bits (so -0 keeps its sign), no
// payload for a BOOL (false and true are two kinds), and a reference's
// object ordinal.
package dump

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"asr/internal/gom"
	"asr/internal/storage"
)

const (
	magic         = "GOMSNAP"
	formatVersion = 2 // 1 was a JSON document
	// residue is the CRC-32C of any message followed by its own CRC-32C,
	// little-endian: Load checks a snapshot by summing all of it.
	residue = 0x48674bc7
)

// Value kinds.
const (
	kindString byte = iota + 1
	kindInteger
	kindDecimal
	kindFalse
	kindTrue
	kindChar
	kindRef
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encoder appends a snapshot to b; the first error sticks.
type encoder struct {
	b   []byte
	ids []gom.OID // the saved objects' OIDs, sorted: a reference's ordinal is its position
	err error
}

func (e *encoder) uvarint(x uint64) { e.b = binary.AppendUvarint(e.b, x) }

func (e *encoder) text(s string) { e.b = append(binary.AppendUvarint(e.b, uint64(len(s))), s...) }

func (e *encoder) ordinal(id gom.OID) {
	k, ok := slices.BinarySearch(e.ids, id)
	if !ok && e.err == nil {
		e.err = fmt.Errorf("dump: reference to %d, which is no live object", id)
	}
	e.uvarint(uint64(k))
}

func (e *encoder) value(v gom.Value) {
	switch w := v.(type) {
	case gom.String:
		e.b = append(e.b, kindString)
		e.text(string(w))
	case gom.Integer:
		e.b = binary.AppendVarint(append(e.b, kindInteger), int64(w))
	case gom.Decimal:
		e.b = binary.LittleEndian.AppendUint64(append(e.b, kindDecimal), math.Float64bits(float64(w)))
	case gom.Bool:
		if e.b = append(e.b, kindFalse); w {
			e.b[len(e.b)-1] = kindTrue
		}
	case gom.Char:
		e.b = binary.AppendVarint(append(e.b, kindChar), int64(w))
	case gom.Ref:
		e.b = append(e.b, kindRef)
		e.ordinal(w.OID())
	default:
		e.err = fmt.Errorf("dump: cannot encode value of type %T", v)
	}
}

// snapshot encodes the object base.
func snapshot(ob *gom.ObjectBase) ([]byte, error) {
	e := &encoder{b: []byte(magic)}
	e.uvarint(formatVersion)
	var schema strings.Builder
	var types []*gom.Type
	for _, t := range ob.Schema().Types() {
		if t.Kind() != gom.AtomicType {
			schema.WriteString(t.Definition() + "\n")
			types = append(types, t)
			e.ids = append(e.ids, ob.Extent(t, false)...)
		}
	}
	slices.Sort(e.ids)
	e.text(schema.String())
	e.uvarint(uint64(len(types)))
	for _, t := range types {
		e.text(t.Name())
	}
	objs := make([]*gom.Object, len(e.ids))
	e.uvarint(uint64(len(e.ids)))
	for k, id := range e.ids {
		o, ok := ob.Get(id)
		if !ok {
			return nil, fmt.Errorf("dump: object %d deleted during save", id)
		}
		objs[k] = o
		e.uvarint(uint64(slices.Index(types, o.Type())))
	}
	for _, o := range objs {
		attrs, set := o.Type().Attributes(), uint64(0)
		for _, a := range attrs {
			if v, _ := o.Attr(a.Name); v != nil {
				set++
			}
		}
		e.uvarint(set)
		for slot, a := range attrs {
			if v, _ := o.Attr(a.Name); v != nil {
				e.uvarint(uint64(slot))
				e.value(v)
			}
		}
		elems := o.Elements()
		e.uvarint(uint64(len(elems)))
		for _, v := range elems {
			e.value(v)
		}
	}
	names := ob.VarNames()
	e.uvarint(uint64(len(names)))
	for _, name := range names {
		id, _ := ob.Var(name)
		e.text(name)
		e.ordinal(id)
	}
	return binary.LittleEndian.AppendUint32(e.b, crc32.Checksum(e.b, castagnoli)), e.err
}

// Save writes the object base to w.
func Save(ob *gom.ObjectBase, w io.Writer) error {
	b, err := snapshot(ob)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// SaveFile writes the object base to path through
// storage.AtomicWriteFile: across a crash path holds its previous
// content or the whole new snapshot, never a truncated one — the
// snapshot is the only persisted copy of the object base.
func SaveFile(ob *gom.ObjectBase, path string) error {
	b, err := snapshot(ob)
	if err == nil {
		if err = storage.AtomicWriteFile(path, b, nil, nil); err != nil {
			err = fmt.Errorf("dump: save %s: %w", path, err)
		}
	}
	return err
}

// LoadFile restores an object base from the snapshot at path.
func LoadFile(path string) (*gom.ObjectBase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Load restores an object base from r, holding one read buffer of it at
// a time. Every value goes in through the base's typed mutators, which
// refuse what the schema does not allow.
func Load(r io.Reader) (*gom.ObjectBase, error) {
	sum := crc32.New(castagnoli)
	d := &decoder{br: bufio.NewReaderSize(io.TeeReader(r, sum), 64<<10)}
	if p, _ := d.br.Peek(1); string(p) == "{" {
		return nil, fmt.Errorf("dump: a format-1 JSON dump; this build reads only format-%d snapshots", formatVersion)
	}
	if p, _ := d.br.Peek(len(magic)); string(p) != magic {
		return nil, fmt.Errorf("dump: not an object-base snapshot (bad magic)")
	}
	d.br.Discard(len(magic))
	if v := d.uvarint(); d.err == nil && v != formatVersion {
		return nil, fmt.Errorf("dump: unsupported format version %d", v)
	}
	schema, _, err := gom.ParseSchema(d.text())
	if err != nil {
		d.fail(fmt.Errorf("schema: %w", err)) // and no loop below runs
	}
	ob := gom.NewObjectBase(schema)
	var types []*gom.Type
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		name := d.text()
		if t, ok := schema.Lookup(name); ok {
			types = append(types, t)
		} else {
			d.fail(fmt.Errorf("unknown type %q", name))
		}
	}
	// Every shell exists before any reference is resolved.
	var objs []*gom.Object
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		if k := d.uvarint(); k >= uint64(len(types)) {
			d.fail(fmt.Errorf("object %d: type index %d out of range (%d types)", len(objs), k, len(types)))
		} else if o, err := ob.New(types[k]); d.fail(err) {
			objs = append(objs, o)
		}
	}
	for k := 0; k < len(objs) && d.err == nil; k++ {
		o, attrs, kind := objs[k], objs[k].Type().Attributes(), objs[k].Type().Kind()
		for n := d.uvarint(); n > 0 && d.err == nil; n-- {
			if slot := d.uvarint(); slot >= uint64(len(attrs)) {
				d.fail(fmt.Errorf("object %d: attribute slot %d out of range for %s", k, slot, o.Type().Name()))
			} else if v := d.value(objs); d.err == nil {
				d.fail(ob.SetAttr(o.ID(), attrs[slot].Name, v))
			}
		}
		n := d.uvarint()
		if n > 0 && kind == gom.TupleType {
			d.fail(fmt.Errorf("object %d: elements on %s-structured type %s", k, kind, o.Type().Name()))
		}
		for ; n > 0 && d.err == nil; n-- {
			if v := d.value(objs); d.err == nil && kind == gom.SetType {
				d.fail(ob.InsertIntoSet(o.ID(), v))
			} else if d.err == nil {
				d.fail(ob.AppendToList(o.ID(), v))
			}
		}
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		if name, o := d.text(), d.object(objs); d.err == nil {
			d.fail(ob.BindVar(name, o.ID()))
		}
	}
	_, err = d.br.Discard(4)
	if _, end := d.br.ReadByte(); d.fail(err) && (end != io.EOF || sum.Sum32() != residue) {
		d.fail(fmt.Errorf("checksum mismatch or bytes after the checksum"))
	}
	if d.err != nil {
		return nil, d.err
	}
	return ob, nil
}

// decoder reads a snapshot's fields. The first error sticks and ends every
// loop: a count claiming more than the input holds costs one failed read.
type decoder struct {
	br  *bufio.Reader
	err error
}

// fail records err unless an earlier one is recorded; it reports
// whether no error has been.
func (d *decoder) fail(err error) bool {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("dump: %w", err)
	}
	return d.err == nil
}

func (d *decoder) uvarint() uint64 {
	v, err := binary.ReadUvarint(d.br)
	d.fail(err)
	return v
}

// text copies a length-prefixed string out of the read buffer a buffer
// at a time: it aliases no buffer and allocates only for bytes present.
func (d *decoder) text() string {
	var sb strings.Builder
	for n := d.uvarint(); n > 0 && d.err == nil; {
		p, err := d.br.Peek(int(min(n, uint64(d.br.Size()))))
		sb.Write(p)
		d.br.Discard(len(p))
		n -= uint64(len(p))
		d.fail(err)
	}
	return sb.String()
}

// object reads an ordinal and returns the object it names.
func (d *decoder) object(objs []*gom.Object) *gom.Object {
	k := d.uvarint()
	if k < uint64(len(objs)) {
		return objs[k]
	}
	d.fail(fmt.Errorf("object ordinal %d out of range (%d objects)", k, len(objs)))
	return nil
}

func (d *decoder) value(objs []*gom.Object) gom.Value {
	kind, err := d.br.ReadByte()
	switch d.fail(err); kind {
	case kindString:
		return gom.String(d.text())
	case kindInteger, kindChar:
		i, err := binary.ReadVarint(d.br)
		if d.fail(err); kind == kindInteger {
			return gom.Integer(i)
		} else if i != int64(rune(i)) {
			d.fail(fmt.Errorf("CHAR %d out of range", i))
		}
		return gom.Char(i)
	case kindDecimal:
		p, err := d.br.Peek(8)
		if d.fail(err); err == nil {
			d.br.Discard(8)
			return gom.Decimal(math.Float64frombits(binary.LittleEndian.Uint64(p)))
		}
	case kindFalse, kindTrue:
		return gom.Bool(kind == kindTrue)
	case kindRef:
		if o := d.object(objs); o != nil {
			return gom.Ref(o.ID())
		}
	default:
		d.fail(fmt.Errorf("unknown value kind %d", kind))
	}
	return nil
}
