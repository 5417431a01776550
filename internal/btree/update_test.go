package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"asr/internal/storage"
)

// checkAgainstModel asserts the tree holds exactly model's entries, in
// key order, with a matching Len and intact structural invariants.
func checkAgainstModel(t *testing.T, tr *Tree, model map[string]string) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d entries", tr.Len(), len(model))
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := tr.Scan(func(k, v []byte) bool {
		if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
			t.Fatalf("entry %d = %x→%q, model disagrees", i, k, v)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("scan yielded %d entries, model has %d", i, len(keys))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateMatchesMapModel drives Update with seeded random decisions
// against a map: every cell of its decision table (insert, replace,
// remove, absent no-op) at every tree shape the splits of a 256-byte
// page produce, with fn shown the value the model holds. Every 50 ops a
// batch runs under an UndoTxn and is rolled back (pages) and Restored
// (Mark): the tree must return to the model exactly, splits and root
// growth included.
func TestUpdateMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := newTestTree(t, 256)
			model := map[string]string{}
			var cells [4]int // found×keep coverage

			// step applies one random Update to the tree and, when
			// commit is set, to the model.
			step := func(commit bool) {
				k := key(rng.Intn(400))
				keep := rng.Intn(3) > 0
				val := []byte(fmt.Sprintf("v%d", rng.Intn(1<<20)))
				if rng.Intn(8) == 0 {
					val = bytes.Repeat([]byte{'w'}, 40) // a replace that can split
				}
				want, has := model[string(k)]
				err := tr.Update(k, func(old []byte, found bool) ([]byte, bool) {
					if commit && (found != has || string(old) != want) {
						t.Fatalf("fn saw %q,%v; model holds %q,%v", old, found, want, has)
					}
					c := 0
					if found {
						c = 2
					}
					if keep {
						c++
					}
					cells[c]++
					return val, keep
				})
				if err != nil {
					t.Fatal(err)
				}
				if !commit {
					return
				}
				if keep {
					model[string(k)] = string(val)
				} else {
					delete(model, string(k))
				}
			}

			for op := 0; op < 3000; op++ {
				step(true)
				if op%50 != 49 {
					continue
				}
				checkAgainstModel(t, tr, model)
				txn, err := tr.pool.BeginUndo()
				if err != nil {
					t.Fatal(err)
				}
				mark := tr.Mark()
				for i := 0; i < 60; i++ {
					step(false)
				}
				if err := txn.Rollback(); err != nil {
					t.Fatal(err)
				}
				tr.Restore(mark)
				checkAgainstModel(t, tr, model)
			}
			for c, n := range cells {
				if n == 0 {
					t.Fatalf("decision cell %d (found<<1|keep) never exercised", c)
				}
			}
			if tr.Height() < 3 {
				t.Fatalf("height %d: the workload never split an internal node", tr.Height())
			}
		})
	}
}

// TestUpdateAbsentNoOpWritesNothing: declining to create an absent key
// must not dirty a page — on the maintenance path it would be logged.
func TestUpdateAbsentNoOpWritesNothing(t *testing.T) {
	d := storage.NewDisk(256)
	pool := storage.NewBufferPool(d, 0, storage.LRU)
	tr, err := New(pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tr.Insert(key(2*i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Writes
	called := false
	err = tr.Update(key(51), func(old []byte, found bool) ([]byte, bool) {
		called = true
		if found || old != nil {
			t.Fatalf("absent key reported as %q,%v", old, found)
		}
		return nil, false
	})
	if err != nil || !called {
		t.Fatalf("Update: called=%v err=%v", called, err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if after := d.Stats().Writes; after != before {
		t.Fatalf("no-op Update wrote %d pages", after-before)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestUpdateRejectsOversizedEntries: the size limits apply to whatever
// fn decides to store, for a new key and for a grown replacement alike,
// and a rejected entry leaves the tree untouched.
func TestUpdateRejectsOversizedEntries(t *testing.T) {
	tr := newTestTree(t, 256)
	if _, err := tr.Insert(key(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte{'x'}, 300)
	if _, err := tr.Insert(key(1), huge); err == nil {
		t.Error("oversized replacement accepted")
	}
	if _, err := tr.Insert(key(2), huge); err == nil {
		t.Error("oversized new entry accepted")
	}
	if _, err := tr.Insert(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	checkAgainstModel(t, tr, map[string]string{string(key(1)): "v"})
}

// leafOf returns the page id of the leaf key's search ends on.
func leafOf(t *testing.T, tr *Tree, k []byte) storage.PageID {
	t.Helper()
	pid := tr.Root()
	for {
		fr, c, err := tr.open(pid, k)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
		if c.leaf {
			return pid
		}
		pid = c.down
	}
}

// TestUpdateInPlaceRewrite: a same-length replacement — a reference-count
// bump — is written into the leaf where the value lies. The page must
// then hold exactly the bytes a decode-and-rewrite of it produces, and
// the rewrite must allocate nothing: no node, no arena, no scratch.
func TestUpdateInPlaceRewrite(t *testing.T) {
	tr := newTestTree(t, 512)
	for i := 0; i < 400; i++ {
		if _, err := tr.Insert(key(i), []byte{0, 0, 0, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: want the rewrite below an internal level", tr.Height())
	}
	val := []byte{0xA, 0xB, 0xC, 0xD}
	bump := func(old []byte, found bool) ([]byte, bool) { return val, true }
	for _, i := range []int{0, 1, 137, 255, 399} {
		k := key(i)
		if err := tr.Update(k, bump); err != nil {
			t.Fatal(err)
		}
		checkLeafRewritten(t, tr, k)
		if got, _, _ := tr.Get(k); !bytes.Equal(got, val) {
			t.Errorf("key %d reads %x after the rewrite, want %x", i, got, val)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	k := key(200)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Update(k, bump); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("in-place rewrite made %.1f allocations, want 0", allocs)
	}
	if tr.Len() != 400 {
		t.Errorf("Len = %d after rewrites, want 400", tr.Len())
	}
}

// TestUpdateAbsentNoOpDecodesNothing: an absent key fn declines to keep
// is decided off the search alone — no node is decoded, so nothing is
// allocated.
func TestUpdateAbsentNoOpDecodesNothing(t *testing.T) {
	tr := newTestTree(t, 512)
	for i := 0; i < 400; i++ {
		if _, err := tr.Insert(key(2*i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	k := key(301)
	decline := func(old []byte, found bool) ([]byte, bool) { return nil, false }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Update(k, decline); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("absent no-op Update made %.1f allocations, want 0", allocs)
	}
}

// TestSpliceAllocatesNothing: inserting a key inside a leaf and deleting
// it again are each spliced into the pinned frame — no node, no arena,
// no scratch buffer. Allocation counts add up, so a pair making none
// means neither edit makes one.
func TestSpliceAllocatesNothing(t *testing.T) {
	tr := newTestTree(t, 512)
	for i := 0; i < 400; i++ {
		if _, err := tr.Insert(key(2*i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	k := key(301)
	if leafOf(t, tr, key(300)) != leafOf(t, tr, k) {
		t.Fatal("key 301 would be its leaf's low key: test premise broken")
	}
	val := []byte("value")
	insert := func(old []byte, found bool) ([]byte, bool) { return val, true }
	remove := func(old []byte, found bool) ([]byte, bool) { return nil, false }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Update(k, insert); err != nil {
			t.Fatal(err)
		}
		if err := tr.Update(k, remove); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an in-place insert and delete made %.1f allocations, want 0", allocs)
	}
	if tr.Len() != 400 {
		t.Errorf("Len = %d, want 400", tr.Len())
	}
}
