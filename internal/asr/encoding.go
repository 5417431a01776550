package asr

import (
	"encoding/binary"
	"fmt"
	"math"

	"asr/internal/gom"
	"asr/internal/relation"
)

// Column encoding for B⁺-tree keys. Each column value is encoded
// self-delimitingly as
//
//	tag(1) | length(2, big-endian) | payload
//
// so that (a) encodings are injective, (b) all keys sharing a column
// value share its exact byte prefix — which makes clustered prefix scans
// per first/last column value work (§5.2) — and (c) payloads of equal
// kind sort meaningfully (big-endian OIDs, sign-flipped integers,
// order-preserving float bits, raw string bytes).
const (
	tagNull    byte = 0
	tagRef     byte = 1
	tagString  byte = 2
	tagInteger byte = 3
	tagDecimal byte = 4
	tagBool    byte = 5
	tagChar    byte = 6
)

// appendValue appends the encoding of one (possibly NULL) column value.
func appendValue(dst []byte, v gom.Value) ([]byte, error) {
	put := func(tag byte, payload []byte) []byte {
		dst = append(dst, tag)
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(payload)))
		dst = append(dst, l[:]...)
		return append(dst, payload...)
	}
	switch w := v.(type) {
	case nil:
		return put(tagNull, nil), nil
	case gom.Ref:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(w.OID()))
		return put(tagRef, b[:]), nil
	case gom.String:
		if len(w) > math.MaxUint16 {
			return nil, fmt.Errorf("asr: string value of %d bytes too long to index", len(w))
		}
		return put(tagString, []byte(w)), nil
	case gom.Integer:
		var b [8]byte
		// Flip the sign bit so big-endian byte order equals numeric order.
		binary.BigEndian.PutUint64(b[:], uint64(w)^(1<<63))
		return put(tagInteger, b[:]), nil
	case gom.Decimal:
		bits := math.Float64bits(float64(w))
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all
		} else {
			bits |= 1 << 63 // positive: flip sign
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return put(tagDecimal, b[:]), nil
	case gom.Bool:
		if w {
			return put(tagBool, []byte{1}), nil
		}
		return put(tagBool, []byte{0}), nil
	case gom.Char:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(w))
		return put(tagChar, b[:]), nil
	default:
		return nil, fmt.Errorf("asr: cannot encode value of type %T", v)
	}
}

// payloadLen is each tag's payload length; -1 admits any (a string).
var payloadLen = [...]int{tagNull: 0, tagRef: 8, tagString: -1, tagInteger: 8, tagDecimal: 8, tagBool: 1, tagChar: 4}

// readColumn reads one column off src, allocating nothing, and returns
// its tag, its payload and the bytes after it. It alone holds the tag
// and length rules: decodeValue boxes what it reads, checkKey counts it.
func readColumn(src []byte) (tag byte, payload, rest []byte, err error) {
	if len(src) < 3 {
		return 0, nil, nil, fmt.Errorf("asr: truncated value encoding")
	}
	tag = src[0]
	l := int(binary.BigEndian.Uint16(src[1:3]))
	if len(src) < 3+l {
		return 0, nil, nil, fmt.Errorf("asr: truncated value payload")
	}
	if int(tag) >= len(payloadLen) {
		return 0, nil, nil, fmt.Errorf("asr: unknown value tag %d", tag)
	}
	payload, rest = src[3:3+l], src[3+l:]
	if want := payloadLen[tag]; want >= 0 && l != want || tag == tagBool && payload[0] > 1 {
		return 0, nil, nil, fmt.Errorf("asr: bad payload (length %d) for value tag %d", l, tag)
	}
	return tag, payload, rest, nil
}

// decodeValue decodes one column value, returning it and the remaining
// bytes.
func decodeValue(src []byte) (gom.Value, []byte, error) {
	tag, payload, rest, err := readColumn(src)
	if err != nil {
		return nil, nil, err
	}
	switch tag {
	case tagRef:
		return gom.Ref(binary.BigEndian.Uint64(payload)), rest, nil
	case tagString:
		return gom.String(payload), rest, nil
	case tagInteger:
		return gom.Integer(binary.BigEndian.Uint64(payload) ^ (1 << 63)), rest, nil
	case tagDecimal:
		bits := binary.BigEndian.Uint64(payload)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return gom.Decimal(math.Float64frombits(bits)), rest, nil
	case tagBool:
		return gom.Bool(payload[0] != 0), rest, nil
	case tagChar:
		return gom.Char(binary.BigEndian.Uint32(payload)), rest, nil
	}
	return nil, rest, nil // tagNull
}

// encodeTuple encodes a tuple with the column at clusterCol first and
// the remaining columns in order afterwards. The result is the B⁺-tree
// key: all entries sharing the cluster-column value are contiguous.
func encodeTuple(t relation.Tuple, clusterCol int) ([]byte, error) {
	if clusterCol < 0 || clusterCol >= len(t) {
		return nil, fmt.Errorf("asr: cluster column %d out of range for arity %d", clusterCol, len(t))
	}
	out := make([]byte, 0, 16*len(t)) // an OID column encodes to 11 bytes
	var err error
	if out, err = appendValue(out, t[clusterCol]); err != nil {
		return nil, err
	}
	for i, v := range t {
		if i == clusterCol {
			continue
		}
		if out, err = appendValue(out, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeTuple reverses encodeTuple for a tuple of the given arity.
func decodeTuple(key []byte, arity, clusterCol int) (relation.Tuple, error) {
	t := make(relation.Tuple, arity)
	n := 0
	for rest := key; len(rest) > 0; n++ {
		var v gom.Value
		var err error
		if v, rest, err = decodeValue(rest); err != nil {
			return nil, err
		}
		// Key column 0 is the cluster column; the others follow in order.
		i := n - 1
		if n == 0 {
			i = clusterCol
		} else if i >= clusterCol {
			i++
		}
		if i < arity {
			t[i] = v
		}
	}
	if n != arity {
		return nil, fmt.Errorf("asr: decoded %d columns, want %d", n, arity)
	}
	return t, nil
}

// checkKey accepts exactly the keys decodeTuple accepts for arity,
// whatever the cluster column: arity columns, each passing readColumn.
// It boxes nothing, so OpenFrom checks a key at the cost of reading it.
func checkKey(key []byte, arity int) (err error) {
	n := 0
	for rest := key; len(rest) > 0; n++ {
		_, _, rest, err = readColumn(rest) // a failed read returns no rest
	}
	if err == nil && n != arity {
		err = fmt.Errorf("asr: decoded %d columns, want %d", n, arity)
	}
	return err
}

// encodePrefix encodes a single value as a key prefix for clustered
// lookups.
func encodePrefix(v gom.Value) ([]byte, error) { return appendValue(nil, v) }
