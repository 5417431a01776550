package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

type kvPair struct{ k, v []byte }

func collectPrefix(t *testing.T, tr *Tree, prefix []byte) []kvPair {
	t.Helper()
	var out []kvPair
	if err := tr.ScanPrefix(prefix, Copied(func(k, v []byte) bool {
		out = append(out, kvPair{k, v})
		return true
	})); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkBatchAgainstSingle(t *testing.T, tr *Tree, prefixes [][]byte) {
	t.Helper()
	batch := make([][]kvPair, len(prefixes))
	if err := tr.ScanPrefixes(prefixes, CopiedIndexed(func(i int, k, v []byte) bool {
		batch[i] = append(batch[i], kvPair{k, v})
		return true
	})); err != nil {
		t.Fatal(err)
	}
	for i, p := range prefixes {
		want := collectPrefix(t, tr, p)
		if len(batch[i]) != len(want) {
			t.Fatalf("prefix %d (%q): batch %d entries, single %d", i, p, len(batch[i]), len(want))
		}
		for j := range want {
			if !bytes.Equal(batch[i][j].k, want[j].k) || !bytes.Equal(batch[i][j].v, want[j].v) {
				t.Fatalf("prefix %d (%q): entry %d diverges", i, p, j)
			}
		}
	}
}

func TestScanPrefixesMatchesScanPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr, err := New(bulkPool(256), "batch")
	if err != nil {
		t.Fatal(err)
	}
	// Keys share two-byte group prefixes so prefix probes return runs.
	for i := 0; i < 4000; i++ {
		g := rng.Intn(200)
		k := []byte(fmt.Sprintf("g%03d/%06d", g, i))
		if _, err := tr.Insert(k, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}

	// Random probe sets: some hits, some misses, duplicates, unsorted.
	for round := 0; round < 20; round++ {
		var prefixes [][]byte
		for j := 0; j < 1+rng.Intn(64); j++ {
			switch rng.Intn(4) {
			case 0: // probable miss
				prefixes = append(prefixes, []byte(fmt.Sprintf("g%03d/", 200+rng.Intn(50))))
			case 1: // duplicate of an earlier probe
				if len(prefixes) > 0 {
					prefixes = append(prefixes, prefixes[rng.Intn(len(prefixes))])
					break
				}
				fallthrough
			default: // probable hit
				prefixes = append(prefixes, []byte(fmt.Sprintf("g%03d/", rng.Intn(200))))
			}
		}
		checkBatchAgainstSingle(t, tr, prefixes)
	}

	// Overlapping prefixes: one probe is a byte-prefix of another, so
	// the broad probe's matches include the narrow probe's and the
	// cursor must go back for them.
	checkBatchAgainstSingle(t, tr, [][]byte{
		[]byte("g0"), []byte("g00"), []byte("g001/"), []byte("g"), []byte("g1"),
	})

	// Edge probes: empty prefix (everything), past-the-end, before-the-start.
	checkBatchAgainstSingle(t, tr, [][]byte{[]byte("zzz"), []byte(""), []byte("a")})
}

func TestScanPrefixesAfterDeletions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr, err := New(bulkPool(256), "batchdel")
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("g%03d/%06d", rng.Intn(100), i))
		keys = append(keys, k)
		if _, err := tr.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Delete whole groups to empty out leaves mid-chain (deletion never
	// merges pages here, so empty leaves persist).
	for _, k := range keys {
		if bytes.HasPrefix(k, []byte("g04")) || bytes.HasPrefix(k, []byte("g05")) {
			if _, err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	var prefixes [][]byte
	for g := 0; g < 110; g += 3 {
		prefixes = append(prefixes, []byte(fmt.Sprintf("g%03d/", g)))
	}
	checkBatchAgainstSingle(t, tr, prefixes)
}

func TestScanPrefixesEmptyTree(t *testing.T) {
	tr, err := New(bulkPool(256), "empty")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := tr.ScanPrefixes([][]byte{[]byte("a"), []byte("b")}, func(i int, k, v []byte) bool {
		calls++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("empty tree produced %d entries", calls)
	}
}

func TestScanPrefixesEarlyStop(t *testing.T) {
	tr, err := New(bulkPool(256), "stop")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := tr.Insert([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	if err := tr.ScanPrefixes([][]byte{[]byte("k")}, func(i int, k, v []byte) bool {
		calls++
		return calls < 10
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("visited %d entries after early stop, want 10", calls)
	}
}

// leafKeys returns every leaf's keys, in leaf-chain order.
func leafKeys(t *testing.T, tr *Tree) [][][]byte {
	t.Helper()
	fr, _, err := tr.leafFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	pid := fr.ID()
	fr.Unpin()
	var leaves [][][]byte
	for !pid.IsNil() {
		fr, n, err := tr.load(pid)
		if err != nil {
			t.Fatal(err)
		}
		var keys [][]byte
		for _, k := range n.keys {
			keys = append(keys, bytes.Clone(k))
		}
		leaves = append(leaves, keys)
		pid = n.next
		fr.Unpin()
	}
	return leaves
}

// TestScanPrefixesPages pins what a sorted batch costs in pages on a
// height-3 tree: a probe the pinned leaf cannot answer costs one
// root-to-leaf descent, never a walk along the leaf chain, and a probe
// the pinned leaf answers costs nothing.
func TestScanPrefixesPages(t *testing.T) {
	pool := bulkPool(256)
	entries := make([]KV, 2000)
	for i := range entries {
		entries[i] = KV{Key: key(i), Val: key(i)}
	}
	tr, err := BulkLoad(pool, "pages", entries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	leaves := leafKeys(t, tr)
	count := func(prefixes [][]byte) uint64 {
		t.Helper()
		pool.ResetStats()
		n := 0
		if err := tr.ScanPrefixes(prefixes, func(i int, k, v []byte) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != len(prefixes) {
			t.Fatalf("%d matches for %d exact-key probes", n, len(prefixes))
		}
		return pool.Stats().LogicalAccesses
	}

	// One probe in the middle of every fifth leaf: each finds its match
	// inside the leaf it descended to, so each costs exactly a descent.
	var far [][]byte
	for l := 0; l < len(leaves); l += 5 {
		keys := leaves[l]
		far = append(far, keys[len(keys)/2])
	}
	if len(far) < 10 {
		t.Fatalf("only %d far probes; want ≥ 10", len(far))
	}
	if got, budget := count(far), uint64(len(far)*tr.Height()); got > budget {
		t.Errorf("%d probes ≥ 5 leaves apart cost %d pages, want ≤ %d (one descent each)", len(far), got, budget)
	}

	// Probes within one leaf, none on its last key (a match there looks
	// at the next leaf for more): one descent for all of them.
	keys := leaves[len(leaves)/2]
	near := keys[1 : len(keys)-1]
	if len(near) < 3 {
		t.Fatalf("only %d probes fit in one leaf", len(near))
	}
	if got := count(near); got != uint64(tr.Height()) {
		t.Errorf("%d probes within one leaf cost %d pages, want %d", len(near), got, tr.Height())
	}
}
