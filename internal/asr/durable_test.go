package asr

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"asr/internal/dump"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// durableRig is a generated database with one managed index on a real
// page file and WAL, plus the paths needed to close and reopen it.
type durableRig struct {
	db    *gendb.Database
	fd    *storage.FileDisk
	w     *storage.WAL
	pool  *storage.BufferPool
	mgr   *Manager
	ix    *Index
	pages string
	man   string
	base  string
}

func newDurableRig(t *testing.T, seed int64) *durableRig {
	t.Helper()
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{30, 40, 40, 40},
		D:    []int{28, 36, 36},
		Fan:  []int{1, 1, 1},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pages := filepath.Join(dir, "pages")
	fd, err := storage.OpenFileDisk(pages, 256)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(pages + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(w)
	mgr := NewManager(db.Base, pool)
	mcol := db.Path.Arity() - 1
	ix, err := mgr.CreateIndex(db.Path, Full, BinaryDecomposition(mcol))
	if err != nil {
		t.Fatal(err)
	}
	return &durableRig{
		db: db, fd: fd, w: w, pool: pool, mgr: mgr, ix: ix,
		pages: pages,
		man:   filepath.Join(dir, "manifest"),
		base:  filepath.Join(dir, "base.gom"),
	}
}

// mutate applies n retargets through the Manager and fails the test
// if any maintenance is unhealthy.
func (r *durableRig) mutate(t *testing.T, n int) {
	t.Helper()
	pairs := retargetPairs(t, r.db.Base, r.db.Extents[0], r.db.Extents[1], n)
	for _, pr := range pairs {
		r.db.Base.MustSetAttr(pr[0], "Next", gom.Ref(pr[1]))
	}
	if err := r.mgr.Healthy(); err != nil {
		t.Fatalf("maintenance: %v", err)
	}
}

// save persists the base dump and the index manifest (which checkpoints
// the pool) and closes the files, as a clean shutdown would.
func (r *durableRig) save(t *testing.T) {
	t.Helper()
	f, err := os.Create(r.base)
	if err != nil {
		t.Fatal(err)
	}
	if err := dump.Save(r.db.Base, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := r.mgr.SaveTo(r.man); err != nil {
		t.Fatal(err)
	}
	if err := r.fd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.w.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopen recovers the page file and opens the manifest against the
// reloaded base, returning the new session.
func (r *durableRig) reopen(t *testing.T) (*gom.ObjectBase, *Manager, *storage.RecoveryInfo) {
	t.Helper()
	return r.reopenBehind(t, 0, true)
}

// reopenBehind is reopen with the pool bounded to frames page frames
// (0 = unbounded). A logged pool is no-steal: a maintenance transaction
// must fit its dirty pages in the frames, so a pool smaller than that
// footprint has to run unlogged.
func (r *durableRig) reopenBehind(t *testing.T, frames int, logged bool) (*gom.ObjectBase, *Manager, *storage.RecoveryInfo) {
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
	fd, w, info, err := storage.Recover(r.pages)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(func() { w.Close(); fd.Close() })
	pool := storage.NewBufferPool(fd, frames, storage.LRU)
	if logged {
		pool.AttachWAL(w)
	}
	mgr, err := OpenFrom(ob, pool, r.man)
	if err != nil {
		t.Fatalf("OpenFrom: %v", err)
	}
	return ob, mgr, info
}

func checkAgainstNaive(t *testing.T, mgr *Manager, ob *gom.ObjectBase, path *gom.PathExpression, starts []gom.OID) {
	t.Helper()
	for _, start := range starts {
		want := naiveForward(ob, path, start, 0, path.Len())
		got, err := mgr.QueryForward(path, 0, path.Len(), gom.Ref(start))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("start %v: %d results, traversal %d", start, len(got), len(want))
		}
		for _, v := range got {
			if !want[gom.ValueString(v)] {
				t.Fatalf("start %v: unexpected %v", start, v)
			}
		}
	}
}

// TestSaveOpenRoundTrip: a mutated index saved to disk reopens without
// a rebuild — verifying clean against the reloaded base, answering
// queries identically, absorbing new updates, and saving again.
func TestSaveOpenRoundTrip(t *testing.T) {
	r := newDurableRig(t, 61)
	r.mutate(t, 3)
	r.save(t)

	ob, mgr, info := r.reopen(t)
	if len(info.QuarantinedPages) != 0 || info.WALTailDamaged {
		t.Fatalf("clean shutdown needed recovery work: %+v", info)
	}
	ixs := mgr.Indexes()
	if len(ixs) != 1 {
		t.Fatalf("%d indexes reopened, want 1", len(ixs))
	}
	ix := ixs[0]
	if ix.Quarantined() {
		t.Fatalf("reopened index quarantined: %v", ix.QuarantineReason())
	}
	if ix.Extension() != r.ix.Extension() || ix.Path().String() != r.ix.Path().String() {
		t.Fatalf("reopened index describes %s/%v, want %s/%v",
			ix.Path(), ix.Extension(), r.ix.Path(), r.ix.Extension())
	}
	rep, err := ix.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("reopened index drifted from the saved base: %s", rep)
	}
	checkAgainstNaive(t, mgr, ob, ix.Path(), r.db.Extents[0][:6])
	if mgr.Stats().IndexHits == 0 {
		t.Fatal("reopened queries did not hit the index")
	}

	// Maintenance continues across the reopen.
	more := retargetPairs(t, ob, r.db.Extents[0], r.db.Extents[1], 2)
	for _, pr := range more {
		ob.MustSetAttr(pr[0], "Next", gom.Ref(pr[1]))
	}
	if err := mgr.Healthy(); err != nil {
		t.Fatalf("maintenance after reopen: %v", err)
	}
	rep, err = ix.Verify()
	if err != nil || !rep.Clean() {
		t.Fatalf("Verify after post-reopen updates: %v, %s", err, rep)
	}

	// And the reopened manager can itself save.
	if err := mgr.SaveTo(r.man + "2"); err != nil {
		t.Fatalf("SaveTo from reopened manager: %v", err)
	}
}

// TestVerifyDetectsCorruptPartitionPage: flipping bytes in a stored
// partition page must surface through Verify as ErrCorruptPage, put the
// index in quarantine (degraded manager routing, correct fallback
// answers), and Repair must rebuild it back to health.
func TestVerifyDetectsCorruptPartitionPage(t *testing.T) {
	r := newDurableRig(t, 67)
	r.mutate(t, 2)
	if err := r.pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.pool.DropClean(); err != nil {
		t.Fatal(err)
	}
	root := r.ix.Partitions()[0].Part.Forward().Root()
	if err := r.fd.CorruptPage(root, 10); err != nil {
		t.Fatal(err)
	}

	_, err := r.ix.Verify()
	if !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("Verify on corrupt partition page = %v, want ErrCorruptPage", err)
	}
	if !r.ix.Quarantined() {
		t.Fatal("index not quarantined after failed physical verification")
	}
	if err := r.mgr.Healthy(); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("Healthy with an index quarantined by Verify = %v, want the quarantine reason", err)
	}

	// Queries still answer via fallback, against the live base.
	checkAgainstNaive(t, r.mgr, r.db.Base, r.db.Path, r.db.Extents[0][:5])
	st := r.mgr.Stats()
	if st.DegradedQueries == 0 {
		t.Fatalf("stats = %+v, expected degraded queries", st)
	}
	if st.IndexHits != 0 {
		t.Fatalf("stats = %+v, quarantined index served a query", st)
	}

	// Repair rebuilds the damaged partition and restores routing.
	if _, err := r.mgr.Repair(r.ix); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := r.mgr.Healthy(); err != nil {
		t.Fatalf("manager unhealthy after repair: %v", err)
	}
	rep, err := r.ix.Verify()
	if err != nil || !rep.Clean() {
		t.Fatalf("Verify after repair: %v, %s", err, rep)
	}
	checkAgainstNaive(t, r.mgr, r.db.Base, r.db.Path, r.db.Extents[0][:5])
	if r.mgr.Stats().IndexHits == 0 {
		t.Fatal("repaired index did not serve queries")
	}
}

// TestOpenFromQuarantinesDamagedPartition: when a stored page rots
// while the database is closed, Recover reports it as unhealable (no
// WAL image covers it), OpenFrom quarantines the owning index instead
// of failing the whole open, and Repair rebuilds it from the base.
func TestOpenFromQuarantinesDamagedPartition(t *testing.T) {
	r := newDurableRig(t, 71)
	r.mutate(t, 2)
	root := r.ix.Partitions()[0].Part.Forward().Root()
	r.save(t)

	// Bit rot while closed.
	fd, err := storage.OpenFileDisk(r.pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.CorruptPage(root, 10); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}

	ob, mgr, info := r.reopen(t)
	quarantined := false
	for _, id := range info.QuarantinedPages {
		if id == root {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("recovery did not quarantine the rotten page %v: %+v", root, info)
	}
	ixs := mgr.Indexes()
	if len(ixs) != 1 {
		t.Fatalf("%d indexes reopened, want 1", len(ixs))
	}
	ix := ixs[0]
	if !ix.Quarantined() {
		t.Fatal("index over the damaged partition not quarantined")
	}

	// Fallback still answers correctly while quarantined.
	checkAgainstNaive(t, mgr, ob, ix.Path(), r.db.Extents[0][:5])
	if mgr.Stats().DegradedQueries == 0 {
		t.Fatal("expected degraded queries while quarantined")
	}

	// Repair rebuilds from the base and lifts the quarantine.
	if _, err := mgr.Repair(ix); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := mgr.Healthy(); err != nil {
		t.Fatalf("manager unhealthy after repair: %v", err)
	}
	rep, err := ix.Verify()
	if err != nil || !rep.Clean() {
		t.Fatalf("Verify after repair: %v, %s", err, rep)
	}
	checkAgainstNaive(t, mgr, ob, ix.Path(), r.db.Extents[0][:5])
	if mgr.Stats().IndexHits == 0 {
		t.Fatal("repaired index did not serve queries")
	}
}

// TestVerifyReadsStoredCounts: Verify and Repair judge what the trees
// store, not a copy kept beside them. One reference count is rewritten
// directly in the forward tree, behind the index's back; Verify must
// report exactly that row as Wrong, Repair must heal it, and the healed
// state must survive a save/reopen.
func TestVerifyReadsStoredCounts(t *testing.T) {
	r := newDurableRig(t, 89)
	r.mutate(t, 2)
	const victim = 1
	part := r.ix.Partitions()[victim].Part
	var key []byte
	if err := part.Forward().Scan(func(k, _ []byte) bool {
		key = append(key, k...)
		return false
	}); err != nil || key == nil {
		t.Fatalf("no stored row to tamper with: %v", err)
	}
	if added, err := part.Forward().Insert(key, refcntVal(7)); err != nil || added {
		t.Fatalf("rewriting a stored count: added=%v err=%v", added, err)
	}

	rep, err := r.ix.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for i, d := range rep.Partitions {
		want := PartitionDrift{Name: d.Name}
		if i == victim {
			want.Wrong = 1
		}
		if d != want {
			t.Fatalf("partition %d drift = %+v, want %+v", i, d, want)
		}
	}
	if rep, err = r.ix.Repair(); err != nil || rep.Clean() {
		t.Fatalf("Repair: %v, %s (want the wrong count recorded)", err, rep)
	}
	if rep, err = r.ix.Verify(); err != nil || !rep.Clean() {
		t.Fatalf("Verify after Repair: %v, %s", err, rep)
	}

	r.save(t)
	_, mgr, _ := r.reopen(t)
	ix := mgr.Indexes()[0]
	if ix.Quarantined() {
		t.Fatalf("reopened index quarantined: %v", ix.QuarantineReason())
	}
	if rep, err = ix.Verify(); err != nil || !rep.Clean() {
		t.Fatalf("Verify after reopen: %v, %s", err, rep)
	}
}

// TestReopenThenMaintainBehindTinyPool: a reopened partition retains
// nothing in memory, so maintenance reads every reference count it bumps
// through the buffer pool. Behind 8 frames — far fewer than the trees
// have pages — updates must still land exactly, with the pool evicting
// along the way.
func TestReopenThenMaintainBehindTinyPool(t *testing.T) {
	r := newDurableRig(t, 97)
	r.mutate(t, 2)
	r.save(t)

	ob, mgr, _ := r.reopenBehind(t, 8, false)
	ix := mgr.Indexes()[0]
	if ix.Quarantined() {
		t.Fatalf("reopened index quarantined: %v", ix.QuarantineReason())
	}
	before := mgr.Pool().Stats()
	for _, pr := range retargetPairs(t, ob, r.db.Extents[0], r.db.Extents[1], 12) {
		ob.MustSetAttr(pr[0], "Next", gom.Ref(pr[1]))
	}
	if err := mgr.Healthy(); err != nil {
		t.Fatalf("maintenance behind 8 frames: %v", err)
	}
	after := mgr.Pool().Stats()
	if after.Misses == before.Misses || after.Evictions == before.Evictions {
		t.Fatalf("maintenance never left the pool: %+v -> %+v", before, after)
	}
	if err := verifyClean(ix); err != nil {
		t.Fatal(err)
	}
	if rep, err := ix.Verify(); err != nil || !rep.Clean() {
		t.Fatalf("Verify: %v, %s", err, rep)
	}
	checkAgainstNaive(t, mgr, ob, ix.Path(), r.db.Extents[0][:6])
}
