// Package dump serializes a GOM object base to a portable JSON document
// and restores it: the schema travels as its own declaration text (the
// paper's §2.1 syntax, which round-trips through the parser), objects as
// explicit value records, and bound database variables by name. Access
// support relations are derived data and are rebuilt after a load rather
// than persisted — rebuilding is a bulk-load (package asr), which is how
// production systems usually treat secondary indexes in logical dumps.
//
// Object identifiers are remapped on load (the restored base assigns
// fresh OIDs in the dump's order); identity is preserved structurally,
// i.e. all references and variable bindings point to the corresponding
// restored objects.
package dump

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"asr/internal/gom"
	"asr/internal/storage"
)

// Format versioning: bump on incompatible changes.
const formatVersion = 1

type document struct {
	Version int         `json:"version"`
	Schema  string      `json:"schema"`
	Objects []objRecord `json:"objects"`
	Vars    []varRecord `json:"vars,omitempty"`
}

type objRecord struct {
	ID    uint64              `json:"id"`
	Type  string              `json:"type"`
	Attrs map[string]valueRec `json:"attrs,omitempty"`
	Elems []valueRec          `json:"elems,omitempty"`
}

type varRecord struct {
	Name string `json:"name"`
	ID   uint64 `json:"id"`
}

// valueRec is a tagged union over the GOM value kinds. A DECIMAL -0
// omits F like 0 does and sets Neg, so its sign survives a reload and
// no other record's bytes change.
type valueRec struct {
	Kind string  `json:"kind"` // str, int, dec, bool, char, ref
	S    string  `json:"s,omitempty"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	Neg  bool    `json:"neg,omitempty"`
	B    bool    `json:"b,omitempty"`
	R    uint64  `json:"r,omitempty"`
}

func encodeValue(v gom.Value) (valueRec, error) {
	switch w := v.(type) {
	case gom.String:
		return valueRec{Kind: "str", S: string(w)}, nil
	case gom.Integer:
		return valueRec{Kind: "int", I: int64(w)}, nil
	case gom.Decimal:
		return valueRec{Kind: "dec", F: float64(w), Neg: w == 0 && math.Signbit(float64(w))}, nil
	case gom.Bool:
		return valueRec{Kind: "bool", B: bool(w)}, nil
	case gom.Char:
		return valueRec{Kind: "char", I: int64(w)}, nil
	case gom.Ref:
		return valueRec{Kind: "ref", R: uint64(w.OID())}, nil
	default:
		return valueRec{}, fmt.Errorf("dump: cannot encode value of type %T", v)
	}
}

func (r valueRec) decode(remap map[uint64]gom.OID) (gom.Value, error) {
	switch r.Kind {
	case "str":
		return gom.String(r.S), nil
	case "int":
		return gom.Integer(r.I), nil
	case "dec":
		if r.Neg {
			return gom.Decimal(math.Copysign(0, -1)), nil
		}
		return gom.Decimal(r.F), nil
	case "bool":
		return gom.Bool(r.B), nil
	case "char":
		return gom.Char(rune(r.I)), nil
	case "ref":
		id, ok := remap[r.R]
		if !ok {
			return nil, fmt.Errorf("dump: reference to unknown object %d", r.R)
		}
		return gom.Ref(id), nil
	default:
		return nil, fmt.Errorf("dump: unknown value kind %q", r.Kind)
	}
}

// Save writes the object base to w.
func Save(ob *gom.ObjectBase, w io.Writer) error {
	doc := document{Version: formatVersion}

	// Schema as declaration text (built-ins excluded).
	var sb strings.Builder
	for _, t := range ob.Schema().Types() {
		if t.Kind() == gom.AtomicType {
			continue
		}
		sb.WriteString(t.Definition())
		sb.WriteString("\n")
	}
	doc.Schema = sb.String()

	// Objects, sorted by OID for determinism.
	var ids []gom.OID
	for _, t := range ob.Schema().Types() {
		if t.Kind() == gom.AtomicType {
			continue
		}
		ids = append(ids, ob.Extent(t, false)...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o, ok := ob.Get(id)
		if !ok {
			continue
		}
		rec := objRecord{ID: uint64(id), Type: o.Type().Name()}
		switch o.Type().Kind() {
		case gom.TupleType:
			for _, a := range o.Type().Attributes() {
				v, _ := o.Attr(a.Name)
				if v == nil {
					continue
				}
				vr, err := encodeValue(v)
				if err != nil {
					return err
				}
				if rec.Attrs == nil {
					rec.Attrs = map[string]valueRec{}
				}
				rec.Attrs[a.Name] = vr
			}
		case gom.SetType, gom.ListType:
			for _, e := range o.Elements() {
				vr, err := encodeValue(e)
				if err != nil {
					return err
				}
				rec.Elems = append(rec.Elems, vr)
			}
		}
		doc.Objects = append(doc.Objects, rec)
	}

	// Bound variables: recover names by probing is impossible — the base
	// exposes lookup only. Collect via VarNames.
	for _, name := range ob.VarNames() {
		id, _ := ob.Var(name)
		doc.Vars = append(doc.Vars, varRecord{Name: name, ID: uint64(id)})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// SaveFile writes the object base to path through
// storage.AtomicWriteFile: across a crash path holds its previous
// content or the whole new dump, never a truncated one — the dump is the
// only persisted copy of the object base.
func SaveFile(ob *gom.ObjectBase, path string) error {
	var buf bytes.Buffer
	if err := Save(ob, &buf); err != nil {
		return err
	}
	if err := storage.AtomicWriteFile(path, buf.Bytes(), nil, nil); err != nil {
		return fmt.Errorf("dump: save %s: %w", path, err)
	}
	return nil
}

// LoadFile restores an object base from the dump at path.
func LoadFile(path string) (*gom.ObjectBase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Load restores an object base from r.
func Load(r io.Reader) (*gom.ObjectBase, error) {
	var doc document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("dump: %w", err)
	}
	if doc.Version != formatVersion {
		return nil, fmt.Errorf("dump: unsupported format version %d", doc.Version)
	}
	schema, _, err := gom.ParseSchema(doc.Schema)
	if err != nil {
		return nil, fmt.Errorf("dump: schema: %w", err)
	}
	ob := gom.NewObjectBase(schema)

	// Pass 1: create shells, building the OID remap.
	remap := make(map[uint64]gom.OID, len(doc.Objects))
	for _, rec := range doc.Objects {
		t, ok := schema.Lookup(rec.Type)
		if !ok {
			return nil, fmt.Errorf("dump: object %d has unknown type %q", rec.ID, rec.Type)
		}
		o, err := ob.New(t)
		if err != nil {
			return nil, err
		}
		if _, dup := remap[rec.ID]; dup {
			return nil, fmt.Errorf("dump: duplicate object id %d", rec.ID)
		}
		remap[rec.ID] = o.ID()
	}

	// Pass 2: fill attributes and elements.
	for _, rec := range doc.Objects {
		id := remap[rec.ID]
		if len(rec.Attrs) > 0 {
			names := make([]string, 0, len(rec.Attrs))
			for name := range rec.Attrs {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				v, err := rec.Attrs[name].decode(remap)
				if err != nil {
					return nil, err
				}
				if err := ob.SetAttr(id, name, v); err != nil {
					return nil, fmt.Errorf("dump: object %d: %w", rec.ID, err)
				}
			}
		}
		o, _ := ob.Get(id)
		for _, er := range rec.Elems {
			v, err := er.decode(remap)
			if err != nil {
				return nil, err
			}
			switch o.Type().Kind() {
			case gom.SetType:
				if err := ob.InsertIntoSet(id, v); err != nil {
					return nil, fmt.Errorf("dump: object %d: %w", rec.ID, err)
				}
			case gom.ListType:
				if err := ob.AppendToList(id, v); err != nil {
					return nil, fmt.Errorf("dump: object %d: %w", rec.ID, err)
				}
			default:
				return nil, fmt.Errorf("dump: object %d: elements on %s-structured type", rec.ID, o.Type().Kind())
			}
		}
	}

	for _, v := range doc.Vars {
		id, ok := remap[v.ID]
		if !ok {
			return nil, fmt.Errorf("dump: var %q references unknown object %d", v.Name, v.ID)
		}
		if err := ob.BindVar(v.Name, id); err != nil {
			return nil, err
		}
	}
	return ob, nil
}
