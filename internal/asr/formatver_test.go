package asr

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"asr/internal/btree"
	"asr/internal/dump"
	"asr/internal/gom"
	"asr/internal/storage"
)

// rewriteMetaV1 stamps page-format version 1 (pre-compression) into a
// partition's meta page through the pool, so the next checkpoint
// persists a catalog page claiming trees this build cannot read.
func rewriteMetaV1(t *testing.T, pool *storage.BufferPool, p *Partition) {
	t.Helper()
	fr, err := pool.Get(p.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(fr.Data()[4:], 1)
	fr.MarkDirty()
	fr.Unpin()
}

// openSession recovers the page file and opens the manifest, returning
// everything needed to close the session again.
func openSession(t *testing.T, r *durableRig, man string) (*gom.ObjectBase, *Manager, *storage.FileDisk, *storage.WAL) {
	t.Helper()
	f, err := os.Open(r.base)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := dump.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	fd, w, _, err := storage.Recover(r.pages)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(w)
	mgr, err := OpenFrom(ob, pool, man)
	if err != nil {
		w.Close()
		fd.Close()
		t.Fatalf("OpenFrom: %v", err)
	}
	return ob, mgr, fd, w
}

// TestOpenFromRebuildsFormatV1Partitions: a page file whose partition
// metadata predates prefix compression must open without a hard
// failure — the owning index comes up quarantined with an error
// wrapping btree.ErrPageFormat, queries degrade to traversal, and
// Repair transparently rebuilds the partitions in the current format,
// after which a second save/open round-trips cleanly.
func TestOpenFromRebuildsFormatV1Partitions(t *testing.T) {
	r := newDurableRig(t, 83)
	r.mutate(t, 2)
	for _, pp := range r.ix.Partitions() {
		rewriteMetaV1(t, r.pool, pp.Part)
	}
	r.save(t)

	ob, mgr, fd, w := openSession(t, r, r.man)
	ixs := mgr.Indexes()
	if len(ixs) != 1 {
		t.Fatalf("%d indexes reopened, want 1", len(ixs))
	}
	ix := ixs[0]
	if !ix.Quarantined() {
		t.Fatal("index over format-v1 partitions not quarantined")
	}
	if reason := ix.QuarantineReason(); !errors.Is(reason, btree.ErrPageFormat) {
		t.Fatalf("quarantine reason = %v, want one wrapping btree.ErrPageFormat", reason)
	}

	// Degraded routing still answers correctly against the live base.
	checkAgainstNaive(t, mgr, ob, ix.Path(), r.db.Extents[0][:5])
	if mgr.Stats().DegradedQueries == 0 {
		t.Fatal("expected degraded queries while quarantined")
	}
	if mgr.Stats().IndexHits != 0 {
		t.Fatal("quarantined format-v1 index served a query")
	}

	// Repair rebuilds every partition in the current page format.
	if _, err := mgr.Repair(ix); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	rep, err := ix.Verify()
	if err != nil || !rep.Clean() {
		t.Fatalf("Verify after repair: %v, %s", err, rep)
	}
	checkAgainstNaive(t, mgr, ob, ix.Path(), r.db.Extents[0][:5])
	if mgr.Stats().IndexHits == 0 {
		t.Fatal("repaired index did not serve queries")
	}

	// The rebuilt state must round-trip: save, close, recover, reopen —
	// no quarantine the second time.
	man2 := r.man + "2"
	if err := mgr.SaveTo(man2); err != nil {
		t.Fatalf("SaveTo after repair: %v", err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ob2, mgr2, fd2, w2 := openSession(t, r, man2)
	defer fd2.Close()
	defer w2.Close()
	ix2 := mgr2.Indexes()[0]
	if ix2.Quarantined() {
		t.Fatalf("index still quarantined after rebuild round-trip: %v", ix2.QuarantineReason())
	}
	rep, err = ix2.Verify()
	if err != nil || !rep.Clean() {
		t.Fatalf("Verify after round-trip: %v, %s", err, rep)
	}
	checkAgainstNaive(t, mgr2, ob2, ix2.Path(), r.db.Extents[0][:5])
}

// TestOpenFromRejectsUnknownFormatVersion: a meta page carrying the
// current magic but a future format version takes the same soft path —
// quarantine wrapping btree.ErrPageFormat, never a misparse.
func TestOpenFromRejectsUnknownFormatVersion(t *testing.T) {
	r := newDurableRig(t, 89)
	r.mutate(t, 1)
	for _, pp := range r.ix.Partitions() {
		fr, err := r.pool.Get(pp.Part.MetaPage())
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(fr.Data()[4:], 99)
		fr.MarkDirty()
		fr.Unpin()
	}
	r.save(t)

	_, mgr, fd, w := openSession(t, r, r.man)
	defer fd.Close()
	defer w.Close()
	ix := mgr.Indexes()[0]
	if !ix.Quarantined() {
		t.Fatal("index over future-format partitions not quarantined")
	}
	if reason := ix.QuarantineReason(); !errors.Is(reason, btree.ErrPageFormat) {
		t.Fatalf("quarantine reason = %v, want one wrapping btree.ErrPageFormat", reason)
	}
	if _, err := mgr.Repair(ix); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if rep, err := ix.Verify(); err != nil || !rep.Clean() {
		t.Fatalf("Verify after repair: %v, %s", err, rep)
	}
}
