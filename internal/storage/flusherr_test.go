package storage

import (
	"errors"
	"strings"
	"testing"

	"asr/internal/fault"
)

// dirtyPages pins, marks and unpins n freshly allocated pages so they
// sit dirty in the pool, and returns their ids.
func dirtyPages(t *testing.T, pool *BufferPool, n int) []PageID {
	t.Helper()
	ids := make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		fr, err := pool.GetNew()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i + 1)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	return ids
}

// TestFlushAllJoinsEveryWriteBackError proves a sick device does not
// hide failures behind the first one: every failed write-back is
// joined into the returned error and counted, and the frames stay
// dirty for a later retry.
func TestFlushAllJoinsEveryWriteBackError(t *testing.T) {
	inj := NewFaultInjector(NewDisk(64), fault.New(1))
	pool := NewBufferPool(inj, 0, LRU)
	ids := dirtyPages(t, pool, 3)
	for _, id := range ids {
		inj.Schedule(Fault{Op: OpWrite, Page: id, Permanent: true})
	}
	err := pool.FlushAll()
	if err == nil {
		t.Fatal("FlushAll on a sick device returned nil")
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("error lost its cause: %v", err)
	}
	for _, id := range ids {
		if !strings.Contains(err.Error(), id.String()) {
			t.Fatalf("failure for page %v not surfaced in %q", id, err)
		}
	}
	if got := pool.Stats().WriteBackErrors; got != 3 {
		t.Fatalf("WriteBackErrors = %d, want 3", got)
	}
	// Heal and retry: the frames stayed dirty, so the data is not lost.
	inj.Heal()
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll after heal: %v", err)
	}
	buf := make([]byte, 64)
	if err := pool.DropClean(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := inj.Read(id, buf); err != nil || buf[0] != byte(i+1) {
			t.Fatalf("page %v lost after heal+flush: %v, byte %#x", id, err, buf[0])
		}
	}
}

// TestDropCleanSurfacesShardErrors covers the same property for
// DropClean: a pinned page and a write-back failure are both reported
// as errors (not silently counted), and a failing shard keeps its
// frames so nothing is lost.
func TestDropCleanSurfacesShardErrors(t *testing.T) {
	inj := NewFaultInjector(NewDisk(64), fault.New(1))
	pool := NewBufferPool(inj, 0, LRU)
	ids := dirtyPages(t, pool, 2)

	pinned, err := pool.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	err = pool.DropClean()
	pinned.Unpin()
	if err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("DropClean with a pinned page = %v, want pinned-page error", err)
	}

	// The refused shard kept its frames: re-dirty a page, make its
	// write-back fail, and the failure must surface with its cause.
	fr, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0x55
	fr.MarkDirty()
	fr.Unpin()
	inj.Schedule(Fault{Op: OpWrite, Page: ids[0], Permanent: true})
	if err := pool.DropClean(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("DropClean on a sick device = %v, want ErrInjectedFault", err)
	}
	// Heal: the dirty frame survived both failed drops.
	inj.Heal()
	if err := pool.DropClean(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := inj.Read(ids[0], buf); err != nil || buf[0] != 0x55 {
		t.Fatalf("page %v lost: %v, byte %#x", ids[0], err, buf[0])
	}
}

// TestDropCleanRefusedDuringWALTransaction: dropping frames an active
// WAL transaction still holds would lose uncommitted data.
func TestDropCleanRefusedDuringWALTransaction(t *testing.T) {
	dir := t.TempDir()
	fd, err := OpenFileDisk(dir+"/pages", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	w, err := OpenWAL(dir + "/pages.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pool := NewBufferPool(fd, 0, LRU)
	pool.AttachWAL(w)
	txn, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	dirtyPages(t, pool, 1)
	if err := pool.DropClean(); err == nil {
		t.Fatal("DropClean during an active WAL transaction succeeded")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropClean(); err != nil {
		t.Fatalf("DropClean after commit: %v", err)
	}
}
