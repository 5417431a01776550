package gom

import (
	"fmt"
)

// TypeKind classifies a GOM type by its outer type constructor (§2.1).
type TypeKind int

// The four type kinds: built-in elementary value types, tuple-structured
// types ([]), set-structured types ({}), and list-structured types (<>).
const (
	AtomicType TypeKind = iota
	TupleType
	SetType
	ListType
)

// String returns a readable kind name.
func (k TypeKind) String() string {
	switch k {
	case AtomicType:
		return "atomic"
	case TupleType:
		return "tuple"
	case SetType:
		return "set"
	case ListType:
		return "list"
	default:
		return fmt.Sprintf("TypeKind(%d)", int(k))
	}
}

// Attribute is a named, typed component of a tuple-structured type.
type Attribute struct {
	Name string
	Type *Type
}

// Type describes a GOM type. Types are interned per Schema: two *Type
// values from the same Schema are identical iff they are pointer-equal.
type Type struct {
	name   string
	kind   TypeKind
	atomic AtomicKind // valid when kind == AtomicType

	// Tuple types.
	supertypes []*Type
	ownAttrs   []Attribute // declared attributes, in declaration order
	allAttrs   []Attribute // own + inherited, resolved on freeze
	attrIndex  map[string]int

	// Set and list types.
	elem *Type

	schema *Schema
}

// Name returns the type's declared name.
func (t *Type) Name() string { return t.name }

// Kind returns the type's outer constructor.
func (t *Type) Kind() TypeKind { return t.kind }

// AtomicKind returns the elementary kind of an atomic type, and
// KindInvalid for constructed types.
func (t *Type) AtomicKind() AtomicKind {
	if t.kind != AtomicType {
		return KindInvalid
	}
	return t.atomic
}

// Elem returns the element type of a set or list type, or nil.
func (t *Type) Elem() *Type { return t.elem }

// Attributes returns all attributes of a tuple type including inherited
// ones, supertype attributes first, in a deterministic order.
func (t *Type) Attributes() []Attribute { return t.allAttrs }

// Attribute looks up an (own or inherited) attribute by name.
func (t *Type) Attribute(name string) (Attribute, bool) {
	if t.attrIndex == nil {
		return Attribute{}, false
	}
	i, ok := t.attrIndex[name]
	if !ok {
		return Attribute{}, false
	}
	return t.allAttrs[i], true
}

// slot returns the position of the named attribute among Attributes(),
// or -1; only a tuple type has attributes.
func (t *Type) slot(name string) int {
	if i, ok := t.attrIndex[name]; ok {
		return i
	}
	return -1
}

// IsSubtypeOf reports whether t is s or a (transitive) subtype of s.
// Subtyping is defined only between tuple types; every type is a subtype
// of itself.
func (t *Type) IsSubtypeOf(s *Type) bool {
	if t == s {
		return true
	}
	for _, sup := range t.supertypes {
		if sup.IsSubtypeOf(s) {
			return true
		}
	}
	return false
}

// String returns the type name.
func (t *Type) String() string { return t.name }

// Definition renders the type in the paper's declaration syntax.
func (t *Type) Definition() string {
	switch t.kind {
	case AtomicType:
		return fmt.Sprintf("type %s is built-in", t.name)
	case SetType:
		return fmt.Sprintf("type %s is {%s};", t.name, t.elem.name)
	case ListType:
		return fmt.Sprintf("type %s is <%s>;", t.name, t.elem.name)
	case TupleType:
		s := "type " + t.name + " is "
		if len(t.supertypes) > 0 {
			s += "supertypes ("
			for i, sup := range t.supertypes {
				if i > 0 {
					s += ", "
				}
				s += sup.name
			}
			s += ") "
		}
		s += "["
		for i, a := range t.ownAttrs {
			if i > 0 {
				s += ", "
			}
			s += a.Name + ": " + a.Type.name
		}
		return s + "];"
	default:
		return "type " + t.name
	}
}

// Schema is a registry of GOM type definitions. The built-in elementary
// types STRING, INTEGER, DECIMAL, BOOL and CHAR are predefined.
type Schema struct {
	types map[string]*Type
	order []string // declaration order for deterministic iteration
}

// NewSchema creates a schema containing only the built-in atomic types.
func NewSchema() *Schema {
	s := &Schema{types: make(map[string]*Type)}
	for _, b := range []struct {
		name string
		kind AtomicKind
	}{
		{"STRING", KindString},
		{"INTEGER", KindInteger},
		{"DECIMAL", KindDecimal},
		{"BOOL", KindBool},
		{"CHAR", KindChar},
	} {
		t := &Type{name: b.name, kind: AtomicType, atomic: b.kind, schema: s}
		s.types[b.name] = t
		s.order = append(s.order, b.name)
	}
	return s
}

// Lookup returns the type with the given name.
func (s *Schema) Lookup(name string) (*Type, bool) {
	t, ok := s.types[name]
	return t, ok
}

// MustLookup returns the named type or panics; intended for tests and
// examples where the schema is static.
func (s *Schema) MustLookup(name string) *Type {
	t, ok := s.types[name]
	if !ok {
		panic(fmt.Sprintf("gom: unknown type %q", name))
	}
	return t
}

// Types returns all types in declaration order (built-ins first).
func (s *Schema) Types() []*Type {
	out := make([]*Type, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.types[n])
	}
	return out
}

func (s *Schema) register(t *Type) error {
	if t.name == "" {
		return fmt.Errorf("gom: type name must not be empty")
	}
	if t.name == "ANY" {
		return fmt.Errorf("gom: type name ANY is reserved (§2.1)")
	}
	if _, dup := s.types[t.name]; dup {
		return fmt.Errorf("gom: type %q already defined", t.name)
	}
	t.schema = s
	s.types[t.name] = t
	s.order = append(s.order, t.name)
	return nil
}

// DefineTuple declares a tuple-structured type with the given direct
// supertypes and own attributes (§2.1). Attribute names must be pairwise
// distinct across the full inherited attribute set, except that an
// attribute inherited identically via several supertypes (diamond
// inheritance) is admitted once.
func (s *Schema) DefineTuple(name string, supertypes []*Type, attrs []Attribute) (*Type, error) {
	for _, sup := range supertypes {
		if sup == nil {
			return nil, fmt.Errorf("gom: type %q: nil supertype", name)
		}
		if sup.kind != TupleType {
			return nil, fmt.Errorf("gom: type %q: supertype %q is not tuple-structured", name, sup.name)
		}
		if sup.schema != s {
			return nil, fmt.Errorf("gom: type %q: supertype %q belongs to a different schema", name, sup.name)
		}
	}
	t := &Type{
		name:       name,
		kind:       TupleType,
		supertypes: append([]*Type(nil), supertypes...),
		ownAttrs:   append([]Attribute(nil), attrs...),
	}
	if err := t.resolveAttributes(); err != nil {
		return nil, err
	}
	if err := s.register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// resolveAttributes computes the full attribute set (inherited first) and
// checks the pairwise-distinctness requirement of §2.1.
func (t *Type) resolveAttributes() error {
	t.attrIndex = make(map[string]int)
	t.allAttrs = nil
	add := func(a Attribute, origin string) error {
		if a.Name == "" {
			return fmt.Errorf("gom: type %q: empty attribute name", t.name)
		}
		if a.Type == nil {
			return fmt.Errorf("gom: type %q: attribute %q has nil type", t.name, a.Name)
		}
		if i, dup := t.attrIndex[a.Name]; dup {
			if t.allAttrs[i].Type == a.Type && origin == "inherited" {
				return nil // diamond inheritance of the same attribute
			}
			return fmt.Errorf("gom: type %q: duplicate attribute %q", t.name, a.Name)
		}
		t.attrIndex[a.Name] = len(t.allAttrs)
		t.allAttrs = append(t.allAttrs, a)
		return nil
	}
	for _, sup := range t.supertypes {
		for _, a := range sup.allAttrs {
			if err := add(a, "inherited"); err != nil {
				return err
			}
		}
	}
	for _, a := range t.ownAttrs {
		if err := add(a, "own"); err != nil {
			return err
		}
	}
	return nil
}

// DefineCollection declares a set-structured type {elem} (kind SetType)
// or a list-structured type <elem> (kind ListType) (§2.1). Powersets —
// sets of sets — are rejected, matching the paper's footnote to Def. 3.1.
func (s *Schema) DefineCollection(name string, kind TypeKind, elem *Type) (*Type, error) {
	if kind != SetType && kind != ListType {
		return nil, fmt.Errorf("gom: collection type %q: kind %v is not a set or a list", name, kind)
	}
	if elem == nil {
		return nil, fmt.Errorf("gom: %v type %q: nil element type", kind, name)
	}
	if kind == SetType && elem.kind == SetType {
		return nil, fmt.Errorf("gom: set type %q: powersets are not permitted", name)
	}
	t := &Type{name: name, kind: kind, elem: elem}
	if err := s.register(t); err != nil {
		return nil, err
	}
	return t, nil
}
