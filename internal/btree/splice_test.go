package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"asr/internal/storage"
)

// rewritten returns writeNode(decode(page)): the bytes the format's one
// encoder renders for what the page holds.
func rewritten(t testing.TB, page []byte) []byte {
	t.Helper()
	pool := bulkPool(len(page))
	src, err := pool.GetNew()
	if err != nil {
		t.Fatal(err)
	}
	copy(src.Data(), page)
	n, err := readNode(src)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := pool.GetNew()
	if err != nil {
		t.Fatal(err)
	}
	writeNode(dst, n)
	return dst.Data()
}

// checkLeafRewritten asserts the leaf a search for k ends on holds
// exactly the bytes writeNode(decode(leaf)) renders.
func checkLeafRewritten(t *testing.T, tr *Tree, k []byte) {
	t.Helper()
	fr, err := tr.pool.Get(leafOf(t, tr, k))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Unpin()
	if want := rewritten(t, fr.Data()); !bytes.Equal(fr.Data(), want) {
		t.Fatalf("leaf %v of key %q differs from writeNode(decode(leaf))\n got %x\nwant %x",
			fr.ID(), k, fr.Data(), want)
	}
}

// spliceKeys is a universe of keys sharing prefixes of every length up
// to what the page size allows (a quarter page), with suffixes of
// varying length: prefix lengths against a leaf's low key then range
// from zero to the whole low key.
func spliceKeys(rng *rand.Rand, pageSize, n int) [][]byte {
	maxPrefix := pageSize/4 - 8
	if maxPrefix > len(sharedPrefix) {
		maxPrefix = len(sharedPrefix)
	}
	seen := map[string]bool{}
	var keys [][]byte
	for len(keys) < n {
		k := fmt.Sprintf("%s%d%s", sharedPrefix[:rng.Intn(maxPrefix+1)], rng.Intn(100), "xyz"[:rng.Intn(4)])
		if !seen[k] {
			seen[k] = true
			keys = append(keys, []byte(k))
		}
	}
	return keys
}

// spliceModel drives a tree and a map model through Update and checks,
// after every edit, that the touched leaf is byte-identical to a
// rewrite of it.
type spliceModel struct {
	t     *testing.T
	tr    *Tree
	model map[string]string
}

func newSpliceModel(t *testing.T, pageSize int) *spliceModel {
	return &spliceModel{t: t, tr: newTestTree(t, pageSize), model: map[string]string{}}
}

// update stores val under k (keep) or removes k (!keep), with fn shown
// the value the model holds.
func (m *spliceModel) update(k, val []byte, keep bool) {
	m.t.Helper()
	want, has := m.model[string(k)]
	err := m.tr.Update(k, func(old []byte, found bool) ([]byte, bool) {
		if found != has || string(old) != want {
			m.t.Fatalf("key %q: fn saw %q,%v; model holds %q,%v", k, old, found, want, has)
		}
		return val, keep
	})
	if err != nil {
		m.t.Fatal(err)
	}
	if keep {
		m.model[string(k)] = string(val)
	} else {
		delete(m.model, string(k))
	}
	checkLeafRewritten(m.t, m.tr, k)
}

// spliced runs edit and reports whether it was spliced into the leaf
// rather than decoded and rewritten.
func spliced(edit func()) bool {
	before := telLeafSplices.Value()
	edit()
	return telLeafSplices.Value() > before
}

// TestSpliceMatchesRewrite is the splice's property test: seeded
// inserts, deletes and replacements — kept values growing and shrinking
// — of shared-prefix keys against a map model, on three page sizes.
// Every edited leaf must read exactly what writeNode(decode(leaf))
// renders, whether the edit was spliced or fell back to a rewrite, and
// both paths must have been taken.
func TestSpliceMatchesRewrite(t *testing.T) {
	for _, pageSize := range []int{256, 512, 4096} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("page%d/seed%d", pageSize, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				keys := spliceKeys(rng, pageSize, pageSize/4)
				m := newSpliceModel(t, pageSize)
				var splices, rewrites int
				for op := 0; op < 1500; op++ {
					k := keys[rng.Intn(len(keys))]
					val := bytes.Repeat([]byte{byte('a' + op%26)}, rng.Intn(13))
					keep := rng.Intn(3) > 0
					if spliced(func() { m.update(k, val, keep) }) {
						splices++
					} else if _, has := m.model[string(k)]; has || !keep {
						rewrites++
					}
					if err := m.tr.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
				checkAgainstModel(t, m.tr, m.model)
				for _, p := range treePages(t, m.tr) {
					if !bytes.Equal(p, rewritten(t, p)) {
						t.Fatal("a page of the final tree differs from writeNode(decode(page))")
					}
				}
				if m.tr.Height() < 2 || splices == 0 || rewrites == 0 {
					t.Fatalf("height %d, %d splices, %d rewrites: want a split tree and both paths",
						m.tr.Height(), splices, rewrites)
				}
			})
		}
	}

	t.Run("insert below the low key", func(t *testing.T) {
		m := newSpliceModel(t, 256)
		m.update([]byte("kb"), []byte("1"), true)
		m.update([]byte("kc"), []byte("2"), true)
		if spliced(func() { m.update([]byte("ka"), []byte("0"), true) }) {
			t.Error("a new low key was spliced: the other entries' prefixes change")
		}
		checkAgainstModel(t, m.tr, m.model)
	})

	t.Run("delete the low key", func(t *testing.T) {
		m := newSpliceModel(t, 256)
		for _, k := range []string{"ka", "kab", "kb"} {
			m.update([]byte(k), []byte("v"), true)
		}
		if spliced(func() { m.update([]byte("ka"), nil, false) }) {
			t.Error("removing the low key was spliced: the other entries' prefixes change")
		}
		checkAgainstModel(t, m.tr, m.model)
	})

	t.Run("resize the low key's value", func(t *testing.T) {
		m := newSpliceModel(t, 256)
		m.update([]byte("ka"), []byte("v"), true)
		m.update([]byte("kab"), []byte("v"), true)
		for _, val := range []string{"longer value", "", "v"} {
			if !spliced(func() { m.update([]byte("ka"), []byte(val), true) }) {
				t.Errorf("resizing the low key's value to %q was not spliced", val)
			}
		}
		checkAgainstModel(t, m.tr, m.model)
	})

	// fn may hand back part of the value it borrowed off the page: the
	// shrunk entry is written before the entries after it move left.
	t.Run("shrink a value to part of the borrowed one", func(t *testing.T) {
		m := newSpliceModel(t, 256)
		for _, k := range []string{"ka", "kb", "kc", "kd"} {
			m.update([]byte(k), []byte(k+"-0123456789"), true)
		}
		for _, k := range []string{"kb", "ka"} {
			if !spliced(func() {
				err := m.tr.Update([]byte(k), func(old []byte, found bool) ([]byte, bool) { return old[4:], true })
				if err != nil {
					t.Fatal(err)
				}
			}) {
				t.Errorf("shrinking %s's value was not spliced", k)
			}
			m.model[k] = m.model[k][4:]
			checkLeafRewritten(t, m.tr, []byte(k))
		}
		checkAgainstModel(t, m.tr, m.model)
	})

	t.Run("empty a leaf and refill it", func(t *testing.T) {
		m := newSpliceModel(t, 256)
		for i := 0; i < 60; i++ {
			m.update(key(i), []byte("value"), true)
		}
		if m.tr.Height() < 2 {
			t.Fatal("want a leaf that is not the root")
		}
		// The keys of the leaf key(30) lies on, last to first: every
		// removal, down to the one that empties the leaf, is spliced.
		pid := leafOf(t, m.tr, key(30))
		var onLeaf [][]byte
		for i := 0; i < 60; i++ {
			if leafOf(t, m.tr, key(i)) == pid {
				onLeaf = append(onLeaf, key(i))
			}
		}
		for i := len(onLeaf) - 1; i >= 0; i-- {
			if !spliced(func() { m.update(onLeaf[i], nil, false) }) {
				t.Errorf("removing entry %d of %d was not spliced", i, len(onLeaf))
			}
		}
		fr, c, err := m.tr.open(pid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.cnt != 0 {
			t.Fatalf("leaf holds %d entries, want 0", c.cnt)
		}
		fr.Unpin()
		for _, k := range onLeaf {
			if !spliced(func() { m.update(k, []byte("refill"), true) }) {
				t.Errorf("refilling key %x was not spliced", k)
			}
		}
		checkAgainstModel(t, m.tr, m.model)
	})

	// A value sized to end exactly at the page's last byte is spliced in
	// place; one byte more splits the leaf.
	for _, over := range []int{0, 1} {
		t.Run(fmt.Sprintf("fill the page to %+d bytes", over), func(t *testing.T) {
			const pageSize = 256
			m := newSpliceModel(t, pageSize)
			for i := 0; i < 8; i++ {
				m.update(prefixedKey(0, i)[40:], []byte("0123456789"), true)
			}
			fr, c, err := m.tr.open(m.tr.Root(), nil)
			if err != nil {
				t.Fatal(err)
			}
			used, low := c.last.end, append([]byte(nil), c.low...)
			fr.Unpin()
			k := prefixedKey(0, 99)[40:]
			vlen := pageSize - used - entryOverheadLeaf - (len(k) - lcp(low, k)) + over
			if vlen < 0 || m.tr.Height() != 1 {
				t.Fatalf("%d bytes used on a tree of height %d: test premise broken", used, m.tr.Height())
			}
			wasSpliced := spliced(func() { m.update(k, bytes.Repeat([]byte{'f'}, vlen), true) })
			if wantSplice := over == 0; wasSpliced != wantSplice || (m.tr.Height() == 1) != wantSplice {
				t.Errorf("spliced %v, height %d: want a splice %v", wasSpliced, m.tr.Height(), wantSplice)
			}
			checkAgainstModel(t, m.tr, m.model)
		})
	}
}

// FuzzLeafSplice decodes its input into a sequence of inserts, deletes
// and value resizes on a tree of 256-byte pages and checks every edited
// leaf against writeNode(decode(leaf)), and the final tree against a
// model. Each op takes two bytes: the key (a shared-prefix universe of
// 64 keys) and the op — delete, or store a value of 0–12 bytes.
func FuzzLeafSplice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 3, 2, 4, 3, 5, 0, 3, 0})
	f.Add([]byte{0, 12, 1, 12, 2, 12, 0, 0, 1, 0, 2, 0, 0, 5})
	ramp := make([]byte, 0, 256)
	for i := 0; i < 128; i++ {
		ramp = append(ramp, byte(i%64), byte(1+i%13))
	}
	f.Add(ramp)
	f.Add(append(append([]byte(nil), ramp...), bytes.Repeat([]byte{7, 0, 40, 6}, 20)...))
	keys := spliceKeys(rand.New(rand.NewSource(1)), 256, 64)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newSpliceModel(t, 256)
		for i := 0; i+1 < len(ops) && i < 1200; i += 2 {
			k, op := keys[int(ops[i])%len(keys)], int(ops[i+1])%14
			if op == 0 {
				m.update(k, nil, false)
			} else {
				m.update(k, bytes.Repeat([]byte{ops[i]}, op-1), true)
			}
		}
		checkAgainstModel(t, m.tr, m.model)
	})
}

// BenchmarkTreeUpdate is leaf churn on a height-3 tree of 4 KiB pages
// over shared-prefix keys: each op inserts a key between two stored
// ones or deletes it again, the edit a maintained update makes when a
// partition row is born or dies.
func BenchmarkTreeUpdate(b *testing.B) {
	var entries []KV
	for g := 0; g < 64; g++ {
		for i := 0; i < 1000; i++ {
			entries = append(entries, KV{Key: prefixedKey(g, 2*i), Val: refVal(i)})
		}
	}
	tr, err := BulkLoad(bulkPool(storage.DefaultPageSize), "bench", entries)
	if err != nil {
		b.Fatal(err)
	}
	if tr.Height() != 3 {
		b.Fatalf("height %d, want 3", tr.Height())
	}
	keys := make([][]byte, 4096)
	for j := range keys {
		keys[j] = prefixedKey(j%64, 2*((j*7919)%1000)+1)
	}
	val := refVal(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		k := keys[(n/2)%len(keys)]
		var err error
		if n%2 == 0 {
			_, err = tr.Insert(k, val)
		} else {
			_, err = tr.Delete(k)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
