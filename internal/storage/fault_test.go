package storage

import (
	"bytes"
	"errors"
	"testing"

	"asr/internal/fault"
)

func TestFaultInjectorScheduledReadWrite(t *testing.T) {
	d := NewDisk(64)
	fi := NewFaultInjector(d, fault.New(1))
	id := fi.Allocate()
	buf := make([]byte, 64)

	// Transient write fault: fires once, then clears.
	fi.Schedule(Fault{Op: OpWrite, Page: id})
	if err := fi.Write(id, buf); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("scheduled write fault did not fire: %v", err)
	}
	if err := fi.Write(id, buf); err != nil {
		t.Fatalf("transient fault did not clear: %v", err)
	}

	// Permanent read fault on a specific page keeps firing; other pages
	// are untouched.
	other := fi.Allocate()
	fi.Schedule(Fault{Op: OpRead, Page: id, Permanent: true})
	for i := 0; i < 3; i++ {
		if err := fi.Read(id, buf); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("permanent read fault stopped firing on attempt %d: %v", i, err)
		}
	}
	if err := fi.Read(other, buf); err != nil {
		t.Fatalf("fault leaked to unrelated page: %v", err)
	}
	fi.Heal()
	if err := fi.Read(id, buf); err != nil {
		t.Fatalf("Heal did not clear faults: %v", err)
	}
	st := fi.FaultStats()
	if st.ReadFaults != 3 || st.WriteFaults != 1 {
		t.Fatalf("stats = %+v, want 3 read / 1 write faults", st)
	}
}

func TestFaultInjectorSkipCountsMatches(t *testing.T) {
	d := NewDisk(64)
	fi := NewFaultInjector(d, fault.New(1))
	id := fi.Allocate()
	buf := make([]byte, 64)
	fi.Schedule(Fault{Op: OpWrite, Skip: 2})
	for i := 0; i < 2; i++ {
		if err := fi.Write(id, buf); err != nil {
			t.Fatalf("write %d should be let through: %v", i, err)
		}
	}
	if err := fi.Write(id, buf); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("third write should fault: %v", err)
	}
}

// TestFaultInjectorSkipEntriesCountTogether: every matching entry
// counts an operation against its Skip, and the first with none left
// fires — so Skip 2 and Skip 5 fire on writes 3 and 7, the write the
// first fires on not counting for the second.
func TestFaultInjectorSkipEntriesCountTogether(t *testing.T) {
	fi := NewFaultInjector(NewDisk(64), fault.New(1))
	id := fi.Allocate()
	buf := make([]byte, 64)
	fi.Schedule(Fault{Op: OpWrite, Skip: 2})
	fi.Schedule(Fault{Op: OpWrite, Skip: 5})
	var fired []int
	for w := 1; w <= 10; w++ {
		if err := fi.Write(id, buf); errors.Is(err, ErrInjectedFault) {
			fired = append(fired, w)
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 7 {
		t.Fatalf("faults fired on writes %v, want [3 7]", fired)
	}
}

func TestFaultInjectorTornWrite(t *testing.T) {
	d := NewDisk(64)
	fi := NewFaultInjector(d, fault.New(1))
	id := fi.Allocate()
	old := bytes.Repeat([]byte{0xAA}, 64)
	if err := fi.Write(id, old); err != nil {
		t.Fatal(err)
	}
	fi.Schedule(Fault{Op: OpWrite, Page: id, TornFraction: 0.5})
	next := bytes.Repeat([]byte{0xBB}, 64)
	if err := fi.Write(id, next); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("torn write did not report failure: %v", err)
	}
	got := make([]byte, 64)
	if err := fi.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:32], next[:32]) || !bytes.Equal(got[32:], old[32:]) {
		t.Fatalf("torn write should persist exactly the first half: got %x", got)
	}
	if st := fi.FaultStats(); st.TornWrites != 1 {
		t.Fatalf("TornWrites = %d, want 1", st.TornWrites)
	}
}

func TestFaultInjectorProbabilisticDeterminism(t *testing.T) {
	run := func() []bool {
		d := NewDisk(64)
		fi := NewFaultInjector(d, fault.New(42))
		fi.FailProbabilistically(0, 0.5)
		id := fi.Allocate()
		buf := make([]byte, 64)
		var outcomes []bool
		for i := 0; i < 32; i++ {
			outcomes = append(outcomes, fi.Write(id, buf) != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	failed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different outcome at op %d", i)
		}
		if a[i] {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("probabilistic mode fired %d/%d times; expected a mix", failed, len(a))
	}
}

func TestBufferPoolWriteBackErrorCounted(t *testing.T) {
	d := NewDisk(64)
	fi := NewFaultInjector(d, fault.New(1))
	pool := NewBufferPool(fi, 0, LRU)
	fr, err := pool.GetNew()
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 7
	fr.MarkDirty()
	fr.Unpin()

	fi.Schedule(Fault{Op: OpWrite, Permanent: true})
	if err := pool.FlushAll(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("FlushAll should surface the write-back failure: %v", err)
	}
	if st := pool.Stats(); st.WriteBackErrors != 1 {
		t.Fatalf("WriteBackErrors = %d, want 1", st.WriteBackErrors)
	}
	// The frame stayed dirty: healing the device and re-flushing persists it.
	fi.Heal()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.Read(fr.ID(), buf); err != nil || buf[0] != 7 {
		t.Fatalf("data lost after retried flush: %v %v", buf[0], err)
	}
}

func TestBufferPoolFlushAllContinuesPastFailures(t *testing.T) {
	d := NewDisk(64)
	fi := NewFaultInjector(d, fault.New(1))
	pool := NewBufferPool(fi, 0, LRU)
	var ids []PageID
	for i := 0; i < 4; i++ {
		fr, err := pool.GetNew()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i + 1)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	// Exactly one page faults; the other three must still be flushed.
	fi.Schedule(Fault{Op: OpWrite, Page: ids[1], Permanent: true})
	if err := pool.FlushAll(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("expected injected fault from FlushAll, got %v", err)
	}
	flushed := 0
	for _, id := range ids {
		buf := make([]byte, 64)
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0 {
			flushed++
		}
	}
	if flushed != 3 {
		t.Fatalf("flushed %d pages despite one fault, want 3", flushed)
	}
}

func TestUndoTxnRollbackRestoresPages(t *testing.T) {
	d := NewDisk(64)
	pool := NewBufferPool(d, 0, LRU)
	fr, err := pool.GetNew()
	if err != nil {
		t.Fatal(err)
	}
	id := fr.ID()
	fr.Data()[0] = 1
	fr.MarkDirty()
	fr.Unpin()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	txn, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.BeginUndo(); err == nil {
		t.Fatal("second BeginUndo should fail while one is active")
	}
	// Mutate the existing page and allocate a fresh one inside the txn.
	fr2, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	fr2.Data()[0] = 99
	fr2.MarkDirty()
	fr2.Unpin()
	frNew, err := pool.GetNew()
	if err != nil {
		t.Fatal(err)
	}
	newID := frNew.ID()
	frNew.Unpin()
	pagesDuring := d.NumPages()

	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data()[0] != 1 {
		t.Fatalf("rollback did not restore page: got %d", got.Data()[0])
	}
	got.Unpin()
	if d.NumPages() != pagesDuring-1 {
		t.Fatalf("fresh page %v not freed on rollback", newID)
	}
	// The pool is reusable: a new txn can start and commit.
	txn2, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	txn2.Commit()
}

func TestUndoTxnRollbackReinstatesEvictedPages(t *testing.T) {
	d := NewDisk(64)
	// Tiny pool: mutations force evictions (and write-backs) mid-txn.
	pool := NewBufferPool(d, 2, LRU)
	var ids []PageID
	for i := 0; i < 4; i++ {
		fr, err := pool.GetNew()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(10 + i)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pre := d.Snapshot()

	txn, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	// Touch every page so each is captured, mutated, and — capacity 2 —
	// evicted with its post-image written back.
	for _, id := range ids {
		fr, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = 77
		fr.MarkDirty()
		fr.Unpin()
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	post := d.Snapshot()
	for id, want := range pre {
		if !bytes.Equal(post[id], want) {
			t.Fatalf("page %v not byte-identical after rollback+flush", id)
		}
	}
}

func TestUndoTxnCommitKeepsMutations(t *testing.T) {
	d := NewDisk(64)
	pool := NewBufferPool(d, 0, LRU)
	fr, err := pool.GetNew()
	if err != nil {
		t.Fatal(err)
	}
	id := fr.ID()
	fr.Unpin()

	txn, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	fr2, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	fr2.Data()[0] = 5
	fr2.MarkDirty()
	fr2.Unpin()
	txn.Commit()

	got, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Unpin()
	if got.Data()[0] != 5 {
		t.Fatalf("commit lost mutation: got %d", got.Data()[0])
	}
	if err := txn.Rollback(); err == nil {
		t.Fatal("Rollback after Commit should fail")
	}
}
