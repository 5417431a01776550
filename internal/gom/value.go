package gom

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Value is the interface satisfied by everything that may be stored in an
// attribute, set, or list: atomic values (which have no identity — their
// value is their identity, §2) and references to objects. The NULL value
// is represented by a nil Value.
type Value interface {
	// Kind reports the value's atomic kind, or KindRef for references.
	Kind() AtomicKind
	// Equal reports value equality. References are equal iff they denote
	// the same object.
	Equal(Value) bool
	fmt.Stringer
}

// AtomicKind enumerates the built-in elementary types of GOM plus the
// reference pseudo-kind.
type AtomicKind int

// Atomic kinds. KindRef marks object references, which are not atomic but
// share the Value interface.
const (
	KindInvalid AtomicKind = iota
	KindString
	KindInteger
	KindDecimal
	KindBool
	KindChar
	KindRef
)

// String returns the GOM name of the atomic kind.
func (k AtomicKind) String() string {
	switch k {
	case KindString:
		return "STRING"
	case KindInteger:
		return "INTEGER"
	case KindDecimal:
		return "DECIMAL"
	case KindBool:
		return "BOOL"
	case KindChar:
		return "CHAR"
	case KindRef:
		return "REF"
	default:
		return "INVALID"
	}
}

// String is the GOM STRING elementary type.
type String string

// Integer is the GOM INTEGER elementary type.
type Integer int64

// Decimal is the GOM DECIMAL elementary type.
type Decimal float64

// Bool is the GOM BOOL elementary type.
type Bool bool

// Char is the GOM CHAR elementary type.
type Char rune

// Ref is a reference to an object, identified by its OID. A Ref carrying
// NilOID is distinct from the NULL value: use a nil Value for NULL.
type Ref OID

// Kind implements Value.
func (String) Kind() AtomicKind { return KindString }

// Kind implements Value.
func (Integer) Kind() AtomicKind { return KindInteger }

// Kind implements Value.
func (Decimal) Kind() AtomicKind { return KindDecimal }

// Kind implements Value.
func (Bool) Kind() AtomicKind { return KindBool }

// Kind implements Value.
func (Char) Kind() AtomicKind { return KindChar }

// Kind implements Value.
func (Ref) Kind() AtomicKind { return KindRef }

// Equal implements Value.
func (v String) Equal(o Value) bool { w, ok := o.(String); return ok && v == w }

// Equal implements Value.
func (v Integer) Equal(o Value) bool { w, ok := o.(Integer); return ok && v == w }

// Equal implements Value. A DECIMAL's identity is its bits, as in a set
// and in an index key: -0 and 0 are two values.
func (v Decimal) Equal(o Value) bool {
	w, ok := o.(Decimal)
	return ok && math.Float64bits(float64(v)) == math.Float64bits(float64(w))
}

// Equal implements Value.
func (v Bool) Equal(o Value) bool { w, ok := o.(Bool); return ok && v == w }

// Equal implements Value.
func (v Char) Equal(o Value) bool { w, ok := o.(Char); return ok && v == w }

// Equal implements Value.
func (v Ref) Equal(o Value) bool { w, ok := o.(Ref); return ok && v == w }

// String implements fmt.Stringer.
func (v String) String() string { return strconv.Quote(string(v)) }

// String implements fmt.Stringer.
func (v Integer) String() string { return strconv.FormatInt(int64(v), 10) }

// String implements fmt.Stringer.
func (v Decimal) String() string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }

// String implements fmt.Stringer.
func (v Bool) String() string { return strconv.FormatBool(bool(v)) }

// String implements fmt.Stringer.
func (v Char) String() string { return "'" + string(rune(v)) + "'" }

// String implements fmt.Stringer.
func (v Ref) String() string { return OID(v).String() }

// OID returns the referenced object identifier.
func (v Ref) OID() OID { return OID(v) }

// ValuesEqual compares two possibly-NULL values. Two NULLs compare equal
// here (this is identity of representation, not SQL three-valued logic).
func ValuesEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

// ValueString renders a possibly-NULL value.
func ValueString(v Value) string {
	if v == nil {
		return "NULL"
	}
	return v.String()
}

// AppendValueString appends ValueString(v) to dst and returns the
// extended slice — the allocation-free form used by hot paths (tuple
// hash keys in joins) that would otherwise build one string per value
// per row. The rendering is byte-identical to ValueString.
func AppendValueString(dst []byte, v Value) []byte {
	switch w := v.(type) {
	case nil:
		return append(dst, "NULL"...)
	case String:
		return strconv.AppendQuote(dst, string(w))
	case Integer:
		return strconv.AppendInt(dst, int64(w), 10)
	case Decimal:
		return strconv.AppendFloat(dst, float64(w), 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(dst, bool(w))
	case Char:
		dst = append(dst, '\'')
		dst = utf8.AppendRune(dst, rune(w))
		return append(dst, '\'')
	case Ref:
		if OID(w) == NilOID {
			return append(dst, "NULL"...)
		}
		dst = append(dst, 'i')
		return strconv.AppendUint(dst, uint64(w), 10)
	default:
		return append(dst, ValueString(v)...)
	}
}
