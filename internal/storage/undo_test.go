package storage

import (
	"bytes"
	"sync"
	"testing"
)

// TestUndoRecyclesPreImages: transaction A captures and commits pages;
// transaction B then captures other pages into A's recycled pre-image
// buffers, dirties them with new bytes — behind a pool too small to
// keep them, so some are evicted with their post-images written back —
// and rolls back. Every page must read its pre-image byte for byte
// (a recycled buffer never leaks A's bytes) while a reader pins pages
// throughout, and a capture reaching A after its Commit must change
// nothing.
func TestUndoRecyclesPreImages(t *testing.T) {
	const pageSize = 64
	d := NewDisk(pageSize)
	pool := NewBufferPool(d, 4, LRU)
	fill := func(tag byte) []byte {
		p := make([]byte, pageSize)
		for i := range p {
			p[i] = tag ^ byte(i)
		}
		return p
	}
	write := func(id PageID, image []byte, content *sync.RWMutex) {
		t.Helper()
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		content.Lock()
		copy(f.Data(), image)
		content.Unlock()
		f.MarkDirty()
		f.Unpin()
	}
	var content sync.RWMutex // latches page bytes between writer and reader
	want := map[PageID][]byte{}
	var aIDs, bIDs []PageID
	for i := 0; i < 16; i++ {
		id := d.Allocate()
		want[id] = fill(byte(0x10 + i))
		write(id, want[id], &content)
		if i < 8 {
			aIDs = append(aIDs, id)
		} else {
			bIDs = append(bIDs, id)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	all := append(append([]PageID(nil), aIDs...), bIDs...)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f, err := pool.Get(all[i%len(all)])
			if err != nil {
				continue // every frame pinned for a moment
			}
			content.RLock()
			_ = f.Data()[0]
			content.RUnlock()
			f.Unpin()
		}
	}()

	txnA, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range aIDs {
		want[id] = fill(0xA0 ^ byte(id))
		write(id, want[id], &content)
	}
	if err := txnA.Commit(); err != nil {
		t.Fatal(err)
	}
	pool.spareMu.Lock()
	spare := len(pool.spare)
	pool.spareMu.Unlock()
	if spare < len(aIDs) {
		t.Fatalf("%d pre-image buffers kept after A's commit, want ≥ %d", spare, len(aIDs))
	}
	txnA.capture(aIDs[0], fill(0xEE))
	pool.spareMu.Lock()
	late := len(pool.spare)
	pool.spareMu.Unlock()
	if txnA.pre != nil || late != spare {
		t.Fatalf("a capture after Commit took effect: pre %v, spare %d → %d", txnA.pre, spare, late)
	}

	txnB, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range bIDs {
		write(id, fill(0xB0^byte(id)), &content)
	}
	evicted := 0
	buf := make([]byte, pageSize)
	for _, id := range bIDs {
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(buf, fill(0xB0^byte(id))) {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no page of B was evicted mid-transaction: test premise broken")
	}
	content.Lock() // a rollback excludes readers of what it restores
	err = txnB.Rollback()
	content.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for id, image := range want {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data(), image) {
			t.Errorf("page %v reads %x, want %x", id, f.Data(), image)
		}
		f.Unpin()
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id, image := range want {
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, image) {
			t.Errorf("page %v on the device reads %x, want %x", id, buf, image)
		}
	}
}

// TestUndoSpareIsBounded: a bulk transaction's pre-images are not all
// kept for the next one — at most undoSpareMax buffers stay with the
// pool.
func TestUndoSpareIsBounded(t *testing.T) {
	d := NewDisk(64)
	pool := NewBufferPool(d, 0, LRU)
	txn, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*undoSpareMax; i++ {
		id := d.Allocate()
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Unpin()
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := len(pool.spare); n != undoSpareMax {
		t.Fatalf("pool keeps %d pre-image buffers, want %d", n, undoSpareMax)
	}
}
