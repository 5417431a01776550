package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"asr/internal/storage"
)

func newTestTree(t testing.TB, pageSize int) *Tree {
	t.Helper()
	d := storage.NewDisk(pageSize)
	pool := storage.NewBufferPool(d, 0, storage.LRU)
	tr, err := New(pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func key(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTestTree(t, 256)
	for i := 0; i < 10; i++ {
		added, err := tr.Insert(key(i), []byte(fmt.Sprintf("v%d", i)))
		if err != nil || !added {
			t.Fatalf("insert %d: added=%v err=%v", i, added, err)
		}
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok, err := tr.Get(key(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d = %q,%v,%v", i, v, ok, err)
		}
	}
	if _, ok, _ := tr.Get(key(99)); ok {
		t.Error("found absent key")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := newTestTree(t, 256)
	tr.Insert(key(1), []byte("a"))
	added, err := tr.Insert(key(1), []byte("b"))
	if err != nil || added {
		t.Fatalf("replace: added=%v err=%v", added, err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	v, _, _ := tr.Get(key(1))
	if string(v) != "b" {
		t.Errorf("value = %q", v)
	}
}

func TestInsertErrors(t *testing.T) {
	tr := newTestTree(t, 256)
	if _, err := tr.Insert(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := tr.Insert(bytes.Repeat([]byte{1}, 100), nil); err == nil {
		t.Error("oversized key accepted (limit pageSize/4)")
	}
	if _, err := tr.Insert(key(1), bytes.Repeat([]byte{1}, 300)); err == nil {
		t.Error("oversized entry accepted")
	}
}

func TestSplitsAndOrderedScan(t *testing.T) {
	tr := newTestTree(t, 256) // small pages force deep trees
	const n = 2000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		if _, err := tr.Insert(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, expected a deep tree on 256-byte pages", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []int
	tr.Scan(func(k, v []byte) bool {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return true
	})
	if len(got) != n || !sort.IntsAreSorted(got) {
		t.Fatalf("scan: %d entries, sorted=%v", len(got), sort.IntsAreSorted(got))
	}
}

func TestDelete(t *testing.T) {
	tr := newTestTree(t, 256)
	const n = 500
	for i := 0; i < n; i++ {
		tr.Insert(key(i), key(i))
	}
	for i := 0; i < n; i += 2 {
		ok, err := tr.Delete(key(i))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if ok, _ := tr.Delete(key(0)); ok {
		t.Error("double delete succeeded")
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		_, ok, _ := tr.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after delete: Get(%d) = %v, want %v", i, ok, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRangeAndPrefix(t *testing.T) {
	tr := newTestTree(t, 512)
	// Composite keys: (cluster uint32, seq uint32).
	comp := func(c, s int) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint32(b, uint32(c))
		binary.BigEndian.PutUint32(b[4:], uint32(s))
		return b
	}
	for c := 0; c < 20; c++ {
		for s := 0; s < 10; s++ {
			tr.Insert(comp(c, s), nil)
		}
	}
	prefix := make([]byte, 4)
	binary.BigEndian.PutUint32(prefix, 7)
	var hits int
	tr.ScanPrefix(prefix, func(k, v []byte) bool { hits++; return true })
	if hits != 10 {
		t.Errorf("prefix scan hits = %d, want 10", hits)
	}
	// Early stop.
	var stopped int
	tr.Scan(func(k, v []byte) bool { stopped++; return stopped < 5 })
	if stopped != 5 {
		t.Errorf("early stop = %d", stopped)
	}
}

func TestComputeStats(t *testing.T) {
	tr := newTestTree(t, 256)
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), key(i))
	}
	st, err := tr.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1000 || st.Height != tr.Height() {
		t.Errorf("stats = %+v", st)
	}
	if st.LeafPages == 0 || st.InnerPages == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPageAccessCounting(t *testing.T) {
	d := storage.NewDisk(storage.DefaultPageSize)
	pool := storage.NewBufferPool(d, 0, storage.LRU)
	tr, err := New(pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		tr.Insert(key(i), nil)
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d", tr.Height())
	}
	pool.ResetStats()
	tr.Get(key(50000))
	if got := pool.Stats().LogicalAccesses; int(got) != tr.Height() {
		t.Errorf("point lookup touched %d pages, want height %d", got, tr.Height())
	}
}

func TestQuickCheckAgainstMap(t *testing.T) {
	// Property: after an arbitrary operation sequence the tree equals a
	// model map, and invariants hold.
	type op struct {
		Key    uint16
		Val    uint8
		Delete bool
	}
	f := func(ops []op) bool {
		tr := newTestTree(t, 256)
		model := map[string]string{}
		for _, o := range ops {
			k := string(key(int(o.Key)))
			if o.Delete {
				delete(model, k)
				if _, err := tr.Delete([]byte(k)); err != nil {
					return false
				}
			} else {
				v := string([]byte{o.Val})
				model[k] = v
				if _, err := tr.Insert([]byte(k), []byte(v)); err != nil {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		got := map[string]string{}
		tr.Scan(func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		})
		if len(got) != len(model) {
			return false
		}
		for k, v := range model {
			if got[k] != v {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := newTestTree(t, 512)
	rng := rand.New(rand.NewSource(42))
	model := map[string]bool{}
	for i := 0; i < 1500; i++ {
		k := make([]byte, 1+rng.Intn(40))
		rng.Read(k)
		model[string(k)] = true
		if _, err := tr.Insert(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(model))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var prev []byte
	tr.Scan(func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Error("scan out of order")
			return false
		}
		prev = append(prev[:0], k...) // k is borrowed (Visit contract)
		return true
	})
}

// TestSplitBelowSharedPrefixFits: a short key inserted below a full leaf
// of long shared-prefix keys becomes its low key, and with it every
// other key loses its compression — the node grows to several pages'
// worth. The split must still find two halves that each fit a page.
func TestSplitBelowSharedPrefixFits(t *testing.T) {
	long := func(i int) []byte { return []byte(fmt.Sprintf("%s%03d", bytes.Repeat([]byte{'P'}, 56), i)) }
	tr := newTestTree(t, 256)
	model := map[string]string{}
	insert := func(k []byte) {
		t.Helper()
		if _, err := tr.Insert(k, []byte("vvvvv")); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = "vvvvv"
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the root leaf until the next long key would not fit.
	for i := 0; ; i++ {
		fr, c, err := tr.open(tr.Root(), nil)
		if err != nil {
			t.Fatal(err)
		}
		used := c.last.end
		fr.Unpin()
		if used+entryOverheadLeaf+3+5 > 256 {
			break
		}
		insert(long(i))
	}
	insert([]byte("A"))
	if tr.Height() != 2 {
		t.Fatalf("height %d, want the root leaf split once", tr.Height())
	}
	checkAgainstModel(t, tr, model)
}
