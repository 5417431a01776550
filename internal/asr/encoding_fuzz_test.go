package asr

import (
	"bytes"
	"testing"

	"asr/internal/gom"
	"asr/internal/relation"
)

// FuzzDecodeValue feeds arbitrary bytes to the key decoder: it must
// never panic, and whatever it accepts must re-encode to the exact
// bytes it consumed (decode∘encode is the identity on valid encodings).
func FuzzDecodeValue(f *testing.F) {
	seedVals := []gom.Value{
		nil,
		gom.Ref(0), gom.Ref(42), gom.Ref(^uint64(0) >> 1),
		gom.String(""), gom.String("abc"), gom.String("\x00\xff"),
		gom.Integer(0), gom.Integer(-1), gom.Integer(1 << 40),
		gom.Decimal(0), gom.Decimal(-3.5), gom.Decimal(1e300),
		gom.Bool(true), gom.Bool(false),
		gom.Char('x'), gom.Char('日'),
	}
	for _, v := range seedVals {
		enc, err := appendValue(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0})
	f.Add([]byte{99, 0, 0})
	f.Add([]byte{1, 0, 200, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := decodeValue(data)
		if err != nil {
			return
		}
		reenc, err := appendValue(nil, v)
		if err != nil {
			t.Fatalf("decoded value %v does not re-encode: %v", v, err)
		}
		consumed := data[:len(data)-len(rest)]
		if !bytes.Equal(reenc, consumed) {
			// The decoders are lenient about payload lengths only where
			// the encoding is canonical; any accepted input must round-
			// trip byte-exactly or prefix scans would mismatch.
			t.Fatalf("re-encoding differs: in=%x out=%x (value %v)", consumed, reenc, v)
		}
	})
}

// FuzzTupleRoundTrip builds tuples from fuzzed primitives and checks
// encodeTuple/decodeTuple are inverse for every cluster column, and
// that the encoding preserves the clustered-prefix property.
func FuzzTupleRoundTrip(f *testing.F) {
	f.Add(uint64(1), "a", int64(-5), false)
	f.Add(uint64(0), "", int64(0), true)
	f.Add(^uint64(0)>>1, "xyz\x00", int64(1<<50), false)

	f.Fuzz(func(t *testing.T, oid uint64, s string, n int64, null bool) {
		if len(s) > 1<<16-1 {
			s = s[:1<<16-1]
		}
		var second gom.Value = gom.String(s)
		if null {
			second = nil
		}
		tup := relation.Tuple{gom.Ref(oid), second, gom.Integer(n)}
		for cluster := 0; cluster < len(tup); cluster++ {
			key, err := encodeTuple(tup, cluster)
			if err != nil {
				t.Fatalf("encodeTuple(%v, %d): %v", tup, cluster, err)
			}
			got, err := decodeTuple(key, len(tup), cluster)
			if err != nil {
				t.Fatalf("decodeTuple(%x): %v", key, err)
			}
			for i := range tup {
				if !gom.ValuesEqual(got[i], tup[i]) {
					t.Fatalf("cluster %d col %d: got %v want %v", cluster, i, got[i], tup[i])
				}
			}
			// Clustered-prefix property: the key must start with the
			// cluster column's own encoding.
			prefix, err := encodePrefix(tup[cluster])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(key, prefix) {
				t.Fatalf("key %x does not start with cluster prefix %x", key, prefix)
			}
		}
	})
}

// FuzzCheckKey holds the in-place key check OpenFrom runs to the key
// decoder queries run: for arbitrary bytes and arities 1–4, checkKey
// accepts exactly what decodeTuple accepts, for every cluster column.
func FuzzCheckKey(f *testing.F) {
	for _, tup := range []relation.Tuple{
		{gom.Ref(7)},
		{gom.Ref(1), gom.String("ab")},
		{gom.Ref(1), nil, gom.Integer(-3)},
		{gom.Bool(true), gom.Char('x'), gom.Decimal(2.5), gom.Ref(9)},
	} {
		key, err := encodeTuple(tup, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(key, uint8(len(tup)-1))
		f.Add(key, uint8(len(tup)))
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{99, 0, 0}, uint8(0))
	f.Add([]byte{tagBool, 0, 1, 2}, uint8(0))
	f.Add([]byte{tagRef, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1, tagNull, 0}, uint8(1))

	f.Fuzz(func(t *testing.T, key []byte, a uint8) {
		arity := 1 + int(a%4)
		cerr := checkKey(key, arity)
		for cluster := 0; cluster < arity; cluster++ {
			if _, derr := decodeTuple(key, arity, cluster); (cerr == nil) != (derr == nil) {
				t.Fatalf("key %x, arity %d, cluster %d: checkKey says %v, decodeTuple %v", key, arity, cluster, cerr, derr)
			}
		}
	})
}
