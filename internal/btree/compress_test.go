package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"asr/internal/storage"
)

// Long shared prefix mimicking a partition's leading OID columns: the
// workload prefix compression is built for.
var sharedPrefix = strings.Repeat("oid:0000:", 7) // 63 bytes

func prefixedKey(g, i int) []byte {
	return []byte(fmt.Sprintf("%s%03d/%08d", sharedPrefix, g, i))
}

// buildBoth constructs the same entries twice — bulk-loaded from sorted
// order and inserted incrementally in shuffled order — so tests can
// assert both construction paths agree with the model.
func buildBoth(t testing.TB, pageSize int, entries []KV) (bulk, incr *Tree) {
	t.Helper()
	sorted := append([]KV(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0 })
	bulk, err := BulkLoad(bulkPool(pageSize), "bulk", sorted)
	if err != nil {
		t.Fatal(err)
	}
	incr, err = New(bulkPool(pageSize), "incr")
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]KV(nil), entries...)
	rand.New(rand.NewSource(11)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, e := range shuffled {
		if _, err := incr.Insert(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	return bulk, incr
}

// TestCompressedAnswersMatchModel is the compression property test: a
// prefix-compressed tree (both construction paths) answers every
// Lookup, Scan, ScanPrefix, and ScanPrefixes byte-identically to a
// plain sorted in-memory model of the same data.
func TestCompressedAnswersMatchModel(t *testing.T) {
	var entries []KV
	model := map[string][]byte{}
	for g := 0; g < 12; g++ {
		for i := 0; i < 120; i++ {
			k := prefixedKey(g, i*7)
			v := []byte(fmt.Sprintf("val-%d-%d", g, i))
			entries = append(entries, KV{Key: k, Val: v})
			model[string(k)] = v
		}
	}
	sortedKeys := make([]string, 0, len(model))
	for k := range model {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)

	// Page sizes ≥ 4×keylen (maxKey limit); small pages force deep trees.
	for _, tc := range []struct{ pageSize int }{{512}, {1024}, {storage.DefaultPageSize}} {
		bulk, incr := buildBoth(t, tc.pageSize, entries)
		for _, tr := range []*Tree{bulk, incr} {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("page %d: %s: %v", tc.pageSize, tr.name, err)
			}
			// Lookups: every present key plus misses around the edges.
			for k, v := range model {
				got, ok, err := tr.Get([]byte(k))
				if err != nil || !ok || !bytes.Equal(got, v) {
					t.Fatalf("page %d: %s: Get(%q) = %q,%v,%v want %q", tc.pageSize, tr.name, k, got, ok, err, v)
				}
			}
			for _, miss := range [][]byte{[]byte("a"), []byte(sharedPrefix), prefixedKey(12, 0), prefixedKey(3, 1)} {
				if _, ok, _ := tr.Get(miss); ok {
					t.Fatalf("page %d: %s: found absent key %q", tc.pageSize, tr.name, miss)
				}
			}
			// Full scan: byte-identical sequence.
			i := 0
			err := tr.Scan(func(k, v []byte) bool {
				if i >= len(sortedKeys) || string(k) != sortedKeys[i] || !bytes.Equal(v, model[sortedKeys[i]]) {
					t.Fatalf("page %d: %s: scan entry %d diverges", tc.pageSize, tr.name, i)
				}
				i++
				return true
			})
			if err != nil || i != len(sortedKeys) {
				t.Fatalf("page %d: %s: scan %d entries, err %v", tc.pageSize, tr.name, i, err)
			}
			// Prefix probes, single and batched (hits, misses, the shared
			// prefix itself, duplicates).
			var prefixes [][]byte
			for g := 0; g < 14; g++ {
				prefixes = append(prefixes, []byte(fmt.Sprintf("%s%03d/", sharedPrefix, g)))
			}
			prefixes = append(prefixes, []byte(sharedPrefix), prefixes[3])
			checkBatchAgainstSingle(t, tr, prefixes)
		}
	}
}

// TestMaxKeyBoundary pins the maxKey = pageSize/4 limit under
// compression: the limit applies to the full (uncompressed) key — a
// page's low key is always stored whole — so boundary-size keys must
// keep working through splits and bulk loads, and one byte over must be
// rejected by both construction paths.
func TestMaxKeyBoundary(t *testing.T) {
	const pageSize = 512
	maxKey, _ := derivedLimits(pageSize)
	if maxKey != pageSize/4 {
		t.Fatalf("derivedLimits maxKey = %d, want %d", maxKey, pageSize/4)
	}
	// Keys of exactly maxKey bytes sharing all but the last 8 bytes:
	// worst case for the low key (stored whole), best for the rest.
	keyAt := func(i int) []byte {
		k := bytes.Repeat([]byte{'x'}, maxKey)
		copy(k[maxKey-8:], fmt.Sprintf("%08d", i))
		return k
	}
	var entries []KV
	for i := 0; i < 400; i++ {
		entries = append(entries, KV{Key: keyAt(i), Val: []byte("v")})
	}
	bulk, incr := buildBoth(t, pageSize, entries)
	for _, tr := range []*Tree{bulk, incr} {
		if tr.Len() != 400 {
			t.Fatalf("%s: Len = %d", tr.name, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		if tr.Height() < 2 {
			t.Fatalf("%s: height %d — boundary keys never split", tr.name, tr.Height())
		}
		v, ok, err := tr.Get(keyAt(123))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("%s: Get boundary key = %q,%v,%v", tr.name, v, ok, err)
		}
	}
	over := bytes.Repeat([]byte{'y'}, maxKey+1)
	if _, err := incr.Insert(over, nil); err == nil {
		t.Error("Insert accepted key one byte over maxKey")
	}
	if _, err := BulkLoad(bulkPool(pageSize), "over", []KV{{Key: over}}); err == nil {
		t.Error("BulkLoad accepted key one byte over maxKey")
	}
}

// TestShortestSeparator pins the suffix-truncation helper: the result
// must satisfy last < sep ≤ first and be minimal in length.
func TestShortestSeparator(t *testing.T) {
	cases := []struct{ last, first, want string }{
		{"", "foo", "foo"},      // no left bound
		{"abc", "abd", "abd"},   // differ at final byte
		{"abc", "abde", "abd"},  // truncate after first divergence
		{"abc", "abcd", "abcd"}, // last is a proper prefix of first
		{"alpha", "omega", "o"}, // no shared prefix
		{"aaaa", "ab", "ab"},    // divergence at byte 1
		{"prefix/001", "prefix/900", "prefix/9"},
	}
	for _, c := range cases {
		got := shortestSeparator([]byte(c.last), []byte(c.first))
		if string(got) != c.want {
			t.Errorf("shortestSeparator(%q, %q) = %q, want %q", c.last, c.first, got, c.want)
		}
		if c.last != "" && bytes.Compare([]byte(c.last), got) >= 0 {
			t.Errorf("separator %q not above %q", got, c.last)
		}
		if bytes.Compare(got, []byte(c.first)) > 0 {
			t.Errorf("separator %q above %q", got, c.first)
		}
	}
}

// TestCompressionDensity verifies the tentpole claim: on shared-prefix
// keys the stored pages are substantially smaller than the format-v1
// layout would be, which shows up as more keys per leaf.
func TestCompressionDensity(t *testing.T) {
	var entries []KV
	for g := 0; g < 10; g++ {
		for i := 0; i < 1000; i++ {
			entries = append(entries, KV{Key: prefixedKey(g, i), Val: refVal(i)})
		}
	}
	tr, err := BulkLoad(bulkPool(storage.DefaultPageSize), "dense", entries)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(st.UsedBytes) / float64(st.UncompressedBytes)
	t.Logf("pages: %d leaves + %d inner, %.1f keys/leaf, stored/uncompressed = %.2f",
		st.LeafPages, st.InnerPages, st.KeysPerLeaf(), ratio)
	if ratio > 0.5 {
		t.Errorf("compression ratio %.2f on shared-prefix keys, want ≤ 0.5", ratio)
	}
	// A v1 leaf stores full keys: ~(4 + 74 + 4) bytes per entry vs the
	// page's net capacity bounds its keys/leaf well below what v2 packs.
	v1PerLeaf := float64(storage.DefaultPageSize-headerSize) / float64(4+len(prefixedKey(0, 0))+4) * bulkFillFactor
	if st.KeysPerLeaf() < 1.5*v1PerLeaf {
		t.Errorf("keys/leaf = %.1f, want ≥ 1.5× the v1 bound %.1f", st.KeysPerLeaf(), v1PerLeaf)
	}
}

func refVal(i int) []byte {
	return []byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

// TestFormatV1PageRejected doctors a page to the pre-compression tag
// bytes and requires every read path to fail with ErrPageFormat rather
// than misparse.
func TestFormatV1PageRejected(t *testing.T) {
	pool := bulkPool(256)
	tr, err := New(pool, "v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tr.Insert(key(i), key(i))
	}
	for _, tag := range []byte{0x00, 0x01, 0x7f} {
		fr, err := pool.Get(tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		orig := fr.Data()[0]
		fr.Data()[0] = tag
		fr.MarkDirty()
		fr.Unpin()

		if _, _, err := tr.Get(key(3)); !errors.Is(err, ErrPageFormat) {
			t.Errorf("tag 0x%02x: Get error = %v, want ErrPageFormat", tag, err)
		}
		if err := tr.Scan(func(k, v []byte) bool { return true }); !errors.Is(err, ErrPageFormat) {
			t.Errorf("tag 0x%02x: Scan error = %v, want ErrPageFormat", tag, err)
		}
		if err := tr.ScanPrefixes([][]byte{{0}}, func(i int, k, v []byte) bool { return true }); !errors.Is(err, ErrPageFormat) {
			t.Errorf("tag 0x%02x: ScanPrefixes error = %v, want ErrPageFormat", tag, err)
		}

		fr, err = pool.Get(tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = orig
		fr.MarkDirty()
		fr.Unpin()
	}
	if _, _, err := tr.Get(key(3)); err != nil {
		t.Fatalf("after restoring the tag: %v", err)
	}
}

// TestEmptyLeafHopTelemetry empties whole leaves via deletion and
// checks scans count their hops in btree_empty_leaf_hops_total.
func TestEmptyLeafHopTelemetry(t *testing.T) {
	tr, err := New(bulkPool(256), "hops")
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for g := 0; g < 6; g++ {
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("g%d/%06d", g, i))
			keys = append(keys, k)
			tr.Insert(k, nil)
		}
	}
	// Empty out the leaves of groups 2 and 3 entirely.
	for _, k := range keys {
		if bytes.HasPrefix(k, []byte("g2")) || bytes.HasPrefix(k, []byte("g3")) {
			if _, err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := tr.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.EmptyLeaves == 0 {
		t.Fatal("deleting two whole groups left no empty leaves — test premise broken")
	}

	before := telEmptyLeafHops.Value()
	if err := tr.Scan(func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	afterScan := telEmptyLeafHops.Value()
	if afterScan-before < uint64(st.EmptyLeaves) {
		t.Errorf("full scan counted %d empty-leaf hops, tree has %d empty leaves", afterScan-before, st.EmptyLeaves)
	}
	// A batch probe spanning the emptied region hops the empty leaves
	// without spending its bounded hop budget.
	got := 0
	err = tr.ScanPrefixes([][]byte{[]byte("g1/"), []byte("g4/")}, func(i int, k, v []byte) bool {
		got++
		return true
	})
	if err != nil || got != 400 {
		t.Fatalf("batch across emptied region: %d matches, err %v", got, err)
	}
	if telEmptyLeafHops.Value() == afterScan {
		t.Error("batch probe across emptied region counted no empty-leaf hops")
	}
}

// TestScanPrefixesPerTupleAllocs pins the zero-copy contract: the scan
// allocates neither per visited tuple nor per page — leaves are searched
// in place — only per call (the probe order, the key buffer). Measured:
// 22 allocations for 4000 tuples, 0.0055 per tuple.
func TestScanPrefixesPerTupleAllocs(t *testing.T) {
	var entries []KV
	for g := 0; g < 8; g++ {
		for i := 0; i < 500; i++ {
			entries = append(entries, KV{Key: prefixedKey(g, i), Val: refVal(i)})
		}
	}
	tr, err := BulkLoad(bulkPool(storage.DefaultPageSize), "alloc", entries)
	if err != nil {
		t.Fatal(err)
	}
	prefixes := make([][]byte, 8)
	for g := range prefixes {
		prefixes[g] = []byte(fmt.Sprintf("%s%03d/", sharedPrefix, g))
	}
	var visited, bytesSeen int
	allocs := testing.AllocsPerRun(10, func() {
		visited = 0
		if err := tr.ScanPrefixes(prefixes, func(i int, k, v []byte) bool {
			visited++
			bytesSeen += len(k) + len(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	if visited != len(entries) {
		t.Fatalf("visited %d of %d entries", visited, len(entries))
	}
	perTuple := allocs / float64(visited)
	t.Logf("%.0f allocs for %d tuples = %.3f/tuple (bytes seen %d)", allocs, visited, perTuple, bytesSeen)
	if perTuple > 0.01 {
		t.Errorf("%.4f allocations per tuple, want < 0.01 (pages searched in place)", perTuple)
	}
}

// BenchmarkScanPrefixesZeroCopy reports the per-tuple cost of the
// batched zero-copy scan; run with -benchmem to see the allocation
// profile (per call only, nothing per page or per tuple).
func BenchmarkScanPrefixesZeroCopy(b *testing.B) {
	var entries []KV
	for g := 0; g < 16; g++ {
		for i := 0; i < 1000; i++ {
			entries = append(entries, KV{Key: prefixedKey(g, i), Val: refVal(i)})
		}
	}
	tr, err := BulkLoad(bulkPool(storage.DefaultPageSize), "bench", entries)
	if err != nil {
		b.Fatal(err)
	}
	prefixes := make([][]byte, 16)
	for g := range prefixes {
		prefixes[g] = []byte(fmt.Sprintf("%s%03d/", sharedPrefix, g))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cnt := 0
		if err := tr.ScanPrefixes(prefixes, func(i int, k, v []byte) bool {
			cnt++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if cnt != len(entries) {
			b.Fatalf("visited %d", cnt)
		}
	}
	b.ReportMetric(float64(len(entries)), "tuples/op")
}

// FuzzSharedPrefixKeySets drives splits and separator truncation with
// adversarial long-shared-prefix key sets: the fuzzer controls the
// suffix bytes; every tree state must keep invariants and match a model
// map exactly.
func FuzzSharedPrefixKeySets(f *testing.F) {
	f.Add([]byte("abcabdabe"), uint8(3))
	f.Add([]byte("\x00\x00\x01\x00\x00\x02\x00\x00\x03"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint8(5))
	f.Add([]byte("aaaaaaaaaaaaaaaab"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		w := int(width%16) + 1
		prefix := bytes.Repeat([]byte{'P'}, 90) // long shared prefix vs 512-byte pages
		tr, err := New(bulkPool(512), "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]bool{}
		for off := 0; off+w <= len(data) && len(model) < 300; off += w {
			k := append(append([]byte(nil), prefix...), data[off:off+w]...)
			if _, err := tr.Insert(k, nil); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = true
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		seen := 0
		var prev []byte
		err = tr.Scan(func(k, v []byte) bool {
			if !model[string(k)] {
				t.Fatalf("scan yielded unknown key %q", k)
			}
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatal("scan out of order")
			}
			prev = append(prev[:0], k...)
			seen++
			return true
		})
		if err != nil || seen != len(model) {
			t.Fatalf("scan %d of %d, err %v", seen, len(model), err)
		}
	})
}
