package gom

import (
	"bytes"
	"math"
	"strconv"
	"strings"
)

// setScanMax is the largest set whose members are found by scanning its
// elements; a larger set keeps an index from canonical key to position.
// The index is dropped again once the set shrinks below half this size,
// so a set whose size hovers at the boundary does not rebuild it on every
// update.
const setScanMax = 32

// find returns the position among a set object's elements of the one
// with v's canonical key, or -1. o.base.mu must be held.
func (o *Object) find(v Value) int {
	if o.index != nil {
		var buf [32]byte
		if i, ok := o.index[string(appendValueKey(buf[:0], v))]; ok {
			return i
		}
		return -1
	}
	for i, e := range o.elems {
		if sameKey(e, v) {
			return i
		}
	}
	return -1
}

// insert appends v, which find does not locate, to a set object's
// elements. o.base.mu must be held for writing.
func (o *Object) insert(v Value) {
	o.elems = append(o.elems, v)
	switch {
	case o.index != nil:
		o.index[valueKey(v)] = len(o.elems) - 1
	case len(o.elems) > setScanMax:
		o.index = make(map[string]int, len(o.elems))
		for i, e := range o.elems {
			o.index[valueKey(e)] = i
		}
	}
}

// removeAt removes a set object's element at position i, moving the last
// element into its place. o.base.mu must be held for writing.
func (o *Object) removeAt(i int) {
	last := len(o.elems) - 1
	if o.index != nil {
		delete(o.index, valueKey(o.elems[i]))
		if i != last {
			o.index[valueKey(o.elems[last])] = i
		}
	}
	o.elems[i] = o.elems[last]
	o.elems[last] = nil
	o.elems = o.elems[:last]
	if len(o.elems) < setScanMax/2 {
		o.index = nil
	}
}

// valueKey canonicalizes a value for set membership. Distinct kinds get
// distinct prefixes so e.g. Integer(1) and Decimal(1) do not collide.
// Every NaN has one key, and -0 and 0 have two.
func valueKey(v Value) string { return string(appendValueKey(nil, v)) }

// appendValueKey appends valueKey(v) to dst and returns the extended
// slice.
func appendValueKey(dst []byte, v Value) []byte {
	switch w := v.(type) {
	case nil:
		return append(dst, 'N')
	case Ref:
		if OID(w) == NilOID {
			return append(dst, "rNULL"...)
		}
		return strconv.AppendUint(append(dst, "ri"...), uint64(w), 10)
	case String:
		return append(append(dst, 's'), w...)
	case Integer:
		return strconv.AppendInt(append(dst, 'i'), int64(w), 10)
	case Decimal:
		return strconv.AppendFloat(append(dst, 'd'), float64(w), 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(append(dst, 'b'), bool(w))
	case Char:
		// Numeric form: a rendered rune folds invalid runes to U+FFFD,
		// which would collide distinct values.
		return strconv.AppendInt(append(dst, 'c'), int64(w), 10)
	default:
		return append(append(dst, '?'), v.String()...)
	}
}

// sameKey reports whether valueKey(a) == valueKey(b) without building
// either key. Only a Decimal's key differs from its == : one key for
// every NaN, two for the zeros.
func sameKey(a, b Value) bool {
	switch x := a.(type) {
	case nil, Ref, String, Integer, Bool, Char:
		return a == b
	case Decimal:
		y, ok := b.(Decimal)
		return ok && (math.Float64bits(float64(x)) == math.Float64bits(float64(y)) || x != x && y != y)
	default:
		return valueKey(a) == valueKey(b)
	}
}

// compareKeys orders two values as their canonical keys order — the
// order Elements reports a set in — building neither key on the heap.
func compareKeys(a, b Value) int {
	if x, ok := a.(String); ok {
		if y, ok := b.(String); ok {
			return strings.Compare(string(x), string(y))
		}
	}
	var ka, kb [32]byte
	return bytes.Compare(appendValueKey(ka[:0], a), appendValueKey(kb[:0], b))
}
