package asr

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"asr/internal/gom"
	"asr/internal/relation"
)

func TestValueEncodingRoundTrip(t *testing.T) {
	values := []gom.Value{
		nil,
		gom.Ref(1), gom.Ref(math.MaxUint64),
		gom.String(""), gom.String("Door"), gom.String("päth/ügly\x00bytes"),
		gom.Integer(0), gom.Integer(-1), gom.Integer(math.MaxInt64), gom.Integer(math.MinInt64),
		gom.Decimal(0), gom.Decimal(-3.25), gom.Decimal(1205.50), gom.Decimal(math.Inf(1)),
		gom.Bool(true), gom.Bool(false),
		gom.Char('A'), gom.Char('→'),
	}
	for _, v := range values {
		enc, err := appendValue(nil, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		dec, rest, err := decodeValue(enc)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(rest) != 0 {
			t.Errorf("%v: %d trailing bytes", v, len(rest))
		}
		if !gom.ValuesEqual(v, dec) {
			t.Errorf("round trip %v -> %v", v, dec)
		}
	}
}

func TestIntegerEncodingOrderPreserving(t *testing.T) {
	f := func(a, b int64) bool {
		ea, _ := appendValue(nil, gom.Integer(a))
		eb, _ := appendValue(nil, gom.Integer(b))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecimalEncodingOrderPreserving(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, _ := appendValue(nil, gom.Decimal(a))
		eb, _ := appendValue(nil, gom.Decimal(b))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTupleEncodingRoundTripQuick(t *testing.T) {
	// Random OID/NULL tuples with arbitrary cluster columns round-trip.
	f := func(raw []uint32, clusterSeed uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		tup := make(relation.Tuple, len(raw))
		for i, r := range raw {
			if r%5 != 0 { // sprinkle NULLs
				tup[i] = gom.Ref(gom.OID(r) + 1)
			}
		}
		cluster := int(clusterSeed) % len(tup)
		key, err := encodeTuple(tup, cluster)
		if err != nil {
			return false
		}
		back, err := decodeTuple(key, len(tup), cluster)
		if err != nil {
			return false
		}
		return back.Key() == tup.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTupleEncodingGroupsByClusterColumn(t *testing.T) {
	// All keys sharing the cluster value share its byte prefix, and no
	// key with a different cluster value has that prefix.
	a := relation.Tuple{gom.Ref(7), gom.Ref(1), gom.String("x")}
	b := relation.Tuple{gom.Ref(7), gom.Ref(2), gom.String("y")}
	c := relation.Tuple{gom.Ref(8), gom.Ref(1), gom.String("x")}
	prefix, _ := encodePrefix(gom.Ref(7))
	ka, _ := encodeTuple(a, 0)
	kb, _ := encodeTuple(b, 0)
	kc, _ := encodeTuple(c, 0)
	if !bytes.HasPrefix(ka, prefix) || !bytes.HasPrefix(kb, prefix) {
		t.Error("cluster-column prefix missing")
	}
	if bytes.HasPrefix(kc, prefix) {
		t.Error("foreign key shares the cluster prefix")
	}
	// Cluster on the last column instead.
	kLast, _ := encodeTuple(a, 2)
	pLast, _ := encodePrefix(gom.String("x"))
	if !bytes.HasPrefix(kLast, pLast) {
		t.Error("last-column clustering prefix missing")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := decodeValue(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := decodeValue([]byte{tagRef, 0, 8, 1, 2}); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, _, err := decodeValue([]byte{99, 0, 0}); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, _, err := decodeValue([]byte{tagRef, 0, 3, 1, 2, 3}); err == nil {
		t.Error("bad ref length accepted")
	}
	good, _ := encodeTuple(relation.Tuple{gom.Ref(1), gom.Ref(2)}, 0)
	if _, err := decodeTuple(good, 3, 0); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := encodeTuple(relation.Tuple{gom.Ref(1)}, 5); err == nil {
		t.Error("out-of-range cluster column accepted")
	}
}
