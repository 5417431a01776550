package asr

import (
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"reflect"
	"testing"
	"time"

	"asr/internal/fault"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// faultyRig is a generated database plus an index stored on a small,
// bounded buffer pool over a fault injector: the tiny pool forces
// maintenance to evict (and so write back) pages mid-update, which is
// where injected write faults bite. An unbounded pool would defer all
// writes to FlushAll and the fault path would never run.
type faultyRig struct {
	db   *gendb.Database
	disk *storage.Disk
	fi   *storage.FaultInjector
	pool *storage.BufferPool
	mgr  *Manager
	ix   *Index
}

func newFaultyRig(t *testing.T, seed int64) *faultyRig {
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
	disk := storage.NewDisk(256)
	fi := storage.NewFaultInjector(disk, fault.New(seed))
	pool := storage.NewBufferPool(fi, 8, storage.LRU)
	mcol := db.Path.Arity() - 1
	mgr := NewManager(db.Base, pool)
	ix, err := mgr.CreateIndex(db.Path, Full, BinaryDecomposition(mcol))
	if err != nil {
		t.Fatal(err)
	}
	return &faultyRig{db: db, disk: disk, fi: fi, pool: pool, mgr: mgr, ix: ix}
}

// mutableSources returns every T_0 object with a defined Next paired
// with a distinct retarget candidate, so reassigning the attribute
// definitely changes the extension.
func (r *faultyRig) mutableSources(t *testing.T) [][2]gom.OID {
	t.Helper()
	var out [][2]gom.OID
	for _, id := range r.db.Extents[0] {
		o, ok := r.db.Base.Get(id)
		if !ok {
			continue
		}
		v, _ := o.Attr("Next")
		cur, isRef := v.(gom.Ref)
		if !isRef {
			continue
		}
		for _, cand := range r.db.Extents[1] {
			if cand != cur.OID() {
				out = append(out, [2]gom.OID{id, cand})
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no mutable source found")
	}
	return out
}

// mutableSource returns the first mutable pair.
func (r *faultyRig) mutableSource(t *testing.T) (src, dst gom.OID) {
	t.Helper()
	p := r.mutableSources(t)[0]
	return p[0], p[1]
}

// refcountsSnapshot reads every partition's (row → reference count)
// pairs off the stored forward tree, so comparing two snapshots proves
// what the pages hold, not what a copy beside them says.
func (r *faultyRig) refcountsSnapshot(t *testing.T) []map[string]int {
	t.Helper()
	var out []map[string]int
	for _, pp := range r.ix.Partitions() {
		refs := map[string]int{}
		err := pp.Part.Forward().Scan(func(k, v []byte) bool {
			refs[string(k)] = int(binary.BigEndian.Uint32(v))
			return true
		})
		if err != nil {
			t.Fatalf("scanning %s: %v", pp.Part.Name(), err)
		}
		if len(refs) != pp.Part.Rows() {
			t.Fatalf("%s: scan found %d rows, Rows() = %d", pp.Part.Name(), len(refs), pp.Part.Rows())
		}
		out = append(out, refs)
	}
	return out
}

// TestMaintenanceFaultRollsBackAndQuarantines is the acceptance
// scenario: a permanent injected write fault makes an update's
// maintenance fail after retries; the failure must leave every
// partition exactly in its pre-update state (reference counts now, disk
// bytes after healing and flushing), quarantine the index, surface the
// error through Index.QuarantineReason, and Repair must bring the index back.
func TestMaintenanceFaultRollsBackAndQuarantines(t *testing.T) {
	r := newFaultyRig(t, 11)

	// Whether an update's maintenance transaction writes to the device
	// depends on which pages the bounded pool evicts, so arm the fault
	// and apply updates until one trips it — re-flushing and
	// re-snapshotting the pristine state before every attempt.
	var preDisk map[storage.PageID][]byte
	var preRefs []map[string]int
	var src gom.OID
	tripped := false
	for _, pair := range r.mutableSources(t) {
		r.fi.Heal()
		if err := r.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		preDisk = diskImage(t, r.disk)
		preRefs = r.refcountsSnapshot(t)
		r.fi.Schedule(storage.Fault{Op: storage.OpWrite, Permanent: true})
		src = pair[0]
		r.db.Base.MustSetAttr(src, "Next", gom.Ref(pair[1]))
		if r.ix.QuarantineReason() != nil {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("no update's maintenance hit the faulty device; shrink the pool capacity")
	}
	err := r.ix.QuarantineReason()
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("maintenance error does not wrap the injected fault: %v", err)
	}
	if !errors.Is(err, ErrQuarantined) && !r.ix.Quarantined() {
		t.Fatal("index not quarantined after unrecoverable maintenance failure")
	}
	st := r.ix.Stats()
	if st.Rollbacks == 0 {
		t.Fatalf("stats = %+v, expected rolled-back transactions", st)
	}
	if st.Retries == 0 {
		t.Fatalf("stats = %+v, expected transient retries before giving up", st)
	}

	// Logical state: every partition's stored reference counts are
	// exactly the pre-update ones. The counts live only in the pages, and
	// reading them through the bounded pool evicts (writes back) frames,
	// so the device is healed first; the fault has done its job.
	r.fi.Heal()
	if got := r.refcountsSnapshot(t); !reflect.DeepEqual(got, preRefs) {
		t.Fatal("partition refcounts drifted despite rollback")
	}

	// Direct queries refuse with ErrQuarantined.
	if _, err := r.ix.Query(context.Background(), true, 0, r.db.Path.Len(), gom.Ref(src)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined index answered a query: %v", err)
	}

	// While quarantined, further updates are skipped (not half-applied).
	before := r.refcountsSnapshot(t)
	src2, dst2 := r.mutableSource(t)
	r.db.Base.MustSetAttr(src2, "Next", gom.Ref(dst2))
	if got := r.refcountsSnapshot(t); !reflect.DeepEqual(got, before) {
		t.Fatal("quarantined index absorbed an update")
	}

	// Physical state: flush, and the stored pages are byte-identical to
	// the pre-update image.
	if err := r.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	postDisk := diskImage(t, r.disk)
	if len(postDisk) != len(preDisk) {
		t.Fatalf("page count changed across rollback: %d -> %d", len(preDisk), len(postDisk))
	}
	for id, want := range preDisk {
		got, ok := postDisk[id]
		if !ok {
			t.Fatalf("page %v vanished across rollback", id)
		}
		if string(got) != string(want) {
			t.Fatalf("page %v not byte-identical after rollback+flush", id)
		}
	}

	// Verify sees the drift (the base moved on; the index did not).
	rep, err := r.ix.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("Verify reported a clean index despite two unapplied updates")
	}

	// Repair resynchronizes and lifts the quarantine.
	rep, err = r.ix.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("Repair rebuilt nothing despite drift")
	}
	if r.ix.Quarantined() {
		t.Fatal("quarantine not lifted by Repair")
	}
	if err := verifyClean(r.ix); err != nil {
		t.Fatalf("index inconsistent after Repair: %v", err)
	}
	rep, err = r.ix.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("Verify after Repair: %s", rep)
	}

	// Maintenance resumes after the repair alone.
	if r.ix.QuarantineReason() != nil {
		t.Fatal("Repair left the index reporting an error")
	}
	src3, dst3 := r.mutableSource(t)
	r.db.Base.MustSetAttr(src3, "Next", gom.Ref(dst3))
	if err := r.ix.QuarantineReason(); err != nil {
		t.Fatalf("maintenance after repair failed: %v", err)
	}
	if err := verifyClean(r.ix); err != nil {
		t.Fatal(err)
	}

	// Post-repair queries equal naive traversal.
	for _, start := range r.db.Extents[0][:5] {
		want := naiveForward(r.db.Base, r.db.Path, start, 0, r.db.Path.Len())
		got, err := r.ix.Query(context.Background(), true, 0, r.db.Path.Len(), gom.Ref(start))
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

// TestTransientFaultIsRetriedAndSucceeds: a single one-shot write fault
// is absorbed by the retry loop — the update lands, no quarantine.
func TestTransientFaultIsRetriedAndSucceeds(t *testing.T) {
	r := newFaultyRig(t, 23)
	r.fi.Schedule(storage.Fault{Op: storage.OpWrite})
	src, dst := r.mutableSource(t)
	r.db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
	if err := r.ix.QuarantineReason(); err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if r.ix.Quarantined() {
		t.Fatal("transient fault quarantined the index")
	}
	st := r.ix.Stats()
	if st.Retries == 0 {
		// The fault may have fired outside the maintenance transaction
		// (e.g. during an unrelated eviction) — but with a bounded pool
		// and a write-heavy update that would be surprising.
		t.Fatalf("stats = %+v, expected at least one retry", st)
	}
	if err := verifyClean(r.ix); err != nil {
		t.Fatal(err)
	}
}

// TestManagerRoutesAroundQuarantineAndRepairs: the Manager must fall
// back to traversal/exhaustive search while an index is quarantined —
// with correct results — count those degraded queries, and
// Manager.Repair must restore index routing and maintenance health.
func TestManagerRoutesAroundQuarantineAndRepairs(t *testing.T) {
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{30, 40, 40, 40},
		D:    []int{28, 36, 36},
		Fan:  []int{1, 1, 1},
		Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk(256)
	fi := storage.NewFaultInjector(disk, fault.New(31))
	pool := storage.NewBufferPool(fi, 8, storage.LRU)
	mgr := NewManager(db.Base, pool)
	mcol := db.Path.Arity() - 1
	ix, err := mgr.CreateIndex(db.Path, Full, BinaryDecomposition(mcol))
	if err != nil {
		t.Fatal(err)
	}

	fi.Schedule(storage.Fault{Op: storage.OpWrite, Permanent: true})
	var src, dst gom.OID
	for _, id := range db.Extents[0] {
		o, _ := db.Base.Get(id)
		if v, _ := o.Attr("Next"); v != nil {
			if cur := v.(gom.Ref).OID(); cur != db.Extents[1][0] {
				src, dst = id, db.Extents[1][0]
				break
			}
		}
	}
	db.Base.MustSetAttr(src, "Next", gom.Ref(dst))

	if mgr.Healthy() == nil {
		t.Fatal("manager healthy despite a quarantined index")
	}
	if !ix.Quarantined() {
		t.Fatal("index not quarantined")
	}
	if got := mgr.FindIndex(db.Path, 0, db.Path.Len()); got != nil {
		t.Fatal("FindIndex returned a quarantined index")
	}

	// Queries still answer — via fallback — and match naive traversal of
	// the live (post-update) base.
	for _, start := range db.Extents[0][:5] {
		want := naiveForward(db.Base, db.Path, start, 0, db.Path.Len())
		got, err := mgr.QueryForward(db.Path, 0, db.Path.Len(), gom.Ref(start))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("start %v: fallback %d results, traversal %d", start, len(got), len(want))
		}
		for _, v := range got {
			if !want[gom.ValueString(v)] {
				t.Fatalf("start %v: unexpected %v", start, v)
			}
		}
	}
	// Backward too: exhaustive search must agree with the index once the
	// index is repaired, so record the degraded answer now.
	endVals, err := mgr.QueryBackward(db.Path, 0, db.Path.Len(), gom.Ref(db.Extents[3][0]))
	if err != nil {
		t.Fatal(err)
	}

	st := mgr.Stats()
	if st.DegradedQueries == 0 {
		t.Fatalf("stats = %+v, expected degraded queries", st)
	}
	if st.IndexHits != 0 {
		t.Fatalf("stats = %+v, no query should have hit the quarantined index", st)
	}
	var found bool
	for _, ixSt := range st.Indexes {
		if ixSt.Quarantined {
			found = true
			if ixSt.Rollbacks == 0 {
				t.Fatalf("index stats %+v, expected rollbacks", ixSt)
			}
		}
	}
	if !found {
		t.Fatal("ManagerStats does not mark the quarantined index")
	}

	// Repair through the manager: quarantine lifted, reason cleared,
	// routing restored.
	fi.Heal()
	if _, err := mgr.Repair(ix); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Healthy(); err != nil {
		t.Fatalf("manager unhealthy after repair: %v", err)
	}
	if got := mgr.FindIndex(db.Path, 0, db.Path.Len()); got != ix {
		t.Fatal("repaired index not routed to")
	}
	repaired, err := mgr.QueryBackward(db.Path, 0, db.Path.Len(), gom.Ref(db.Extents[3][0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != len(endVals) {
		t.Fatalf("index answer (%d values) disagrees with degraded answer (%d values)", len(repaired), len(endVals))
	}
	if hits := mgr.Stats().IndexHits; hits == 0 {
		t.Fatal("repaired index did not serve the query")
	}
}

// TestQueryCtxCancellation: a cancelled context aborts index queries,
// manager fallbacks, and returns the context's error.
func TestQueryCtxCancellation(t *testing.T) {
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{30, 40, 40, 40},
		D:    []int{28, 36, 36},
		Fan:  []int{1, 1, 1},
		Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool()
	mcol := db.Path.Arity() - 1
	ix, err := Build(db.Base, db.Path, Full, BinaryDecomposition(mcol), pool)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(db.Base, pool)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	starts := make([]gom.Value, 0, len(db.Extents[0]))
	for _, id := range db.Extents[0] {
		starts = append(starts, gom.Ref(id))
	}
	if _, err := ix.Query(ctx, true, 0, db.Path.Len(), starts...); !errors.Is(err, context.Canceled) {
		t.Fatalf("forward Query on cancelled ctx: %v", err)
	}
	if _, err := ix.Query(ctx, false, 0, db.Path.Len(), gom.Ref(db.Extents[3][0])); !errors.Is(err, context.Canceled) {
		t.Fatalf("backward Query on cancelled ctx: %v", err)
	}
	// The manager's backward fallback (no index registered with it).
	if _, err := mgr.QueryBackwardCtx(ctx, db.Path, 0, db.Path.Len(), 1, gom.Ref(db.Extents[3][0])); !errors.Is(err, context.Canceled) {
		t.Fatalf("manager backward fallback on cancelled ctx: %v", err)
	}

	// A live context still answers.
	if _, err := ix.Query(context.Background(), true, 0, db.Path.Len(), starts...); err != nil {
		t.Fatalf("live ctx query failed: %v", err)
	}

	// An expired deadline behaves like cancellation.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := ix.Query(dctx, true, 0, db.Path.Len(), starts...); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v", err)
	}
}

// TestDirectRepairRestoresHealth: the quarantine reason is the only
// record of a failed index, so whatever lifts the quarantine restores
// Manager.Healthy — including Index.Repair called directly, with no
// manager-side bookkeeping to remember.
func TestDirectRepairRestoresHealth(t *testing.T) {
	r := newFaultyRig(t, 37)
	mgr := r.mgr

	r.fi.Schedule(storage.Fault{Op: storage.OpWrite, Permanent: true})
	src, dst := r.mutableSource(t)
	r.db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
	if !r.ix.Quarantined() {
		t.Fatal("index not quarantined by the permanent write fault")
	}
	if err := mgr.Healthy(); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("Healthy = %v, want the injected fault", err)
	}

	r.fi.Heal()
	if _, err := r.ix.Repair(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Healthy(); err != nil {
		t.Fatalf("Healthy after a direct Index.Repair = %v, want nil", err)
	}
	if st := mgr.Stats().Indexes[0]; !st.MaintenanceOK || st.Quarantined {
		t.Fatalf("index stats after repair = %+v", st)
	}
}

// TestSearchReadFaultQuarantines: a device read fault during §6's
// search fails the attempt before anything is written — it is retried,
// counted as a rolled-back attempt, and once the retries are spent the
// index quarantines exactly as after a write fault, with the stored rows
// still those before the update.
func TestSearchReadFaultQuarantines(t *testing.T) {
	r := newFaultyRig(t, 41)
	stored := make([]map[string]int, len(r.ix.parts))
	for i, pp := range r.ix.parts {
		stored[i] = storedCounts(t, pp.Part)
	}
	if err := r.pool.DropClean(); err != nil { // the search must read the device
		t.Fatal(err)
	}
	writes := r.disk.Stats().Writes
	r.fi.Schedule(storage.Fault{Op: storage.OpRead, Permanent: true})
	src, dst := r.mutableSource(t)
	r.db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
	if !r.ix.Quarantined() || r.ix.QuarantineReason() == nil {
		t.Fatal("a search that cannot read did not quarantine the index")
	}
	if st := r.ix.Stats(); st.Retries != maintRetries || st.Rollbacks != maintRetries+1 {
		t.Fatalf("stats = %+v, want %d retries and %d rolled-back attempts", st, maintRetries, maintRetries+1)
	}
	if got := r.disk.Stats().Writes; got != writes {
		t.Fatalf("the failed search wrote %d pages", got-writes)
	}
	r.fi.Heal()
	for i, pp := range r.ix.parts {
		if got := storedCounts(t, pp.Part); !maps.Equal(got, stored[i]) {
			t.Fatalf("partition %s changed under a failed search", pp.Part.Name())
		}
	}
	if _, err := r.ix.Repair(); err != nil {
		t.Fatal(err)
	}
	if err := verifyClean(r.ix); err != nil {
		t.Fatal(err)
	}
}

// TestStepFailureQuarantinesEveryChangedIndex: one mutation maintains
// two indexes on the rig's path in one transaction, so a permanent write
// fault rolls back both — their stored rows stay the pre-update ones —
// and quarantines both with the joined attempt errors, while an index
// whose path the mutation does not touch stays in service.
func TestStepFailureQuarantinesEveryChangedIndex(t *testing.T) {
	r := newFaultyRig(t, 11)
	mcol := r.db.Path.Arity() - 1
	left, err := r.mgr.CreateIndex(r.db.Path, LeftComplete, BinaryDecomposition(mcol))
	if err != nil {
		t.Fatal(err)
	}
	tail := gom.MustResolvePath(r.db.Types[2], "Next") // no T_0.Next step
	other, err := r.mgr.CreateIndex(tail, Full, BinaryDecomposition(tail.Arity()-1))
	if err != nil {
		t.Fatal(err)
	}
	changed := []*Index{r.ix, left}
	snapshot := func() (out []map[string]int) {
		for _, ix := range changed {
			for _, pp := range ix.parts {
				out = append(out, storedCounts(t, pp.Part))
			}
		}
		return out
	}

	var pre []map[string]int
	for _, pair := range r.mutableSources(t) {
		r.fi.Heal()
		pre = snapshot()
		r.fi.Schedule(storage.Fault{Op: storage.OpWrite, Permanent: true})
		r.db.Base.MustSetAttr(pair[0], "Next", gom.Ref(pair[1]))
		if r.ix.Quarantined() || left.Quarantined() {
			break
		}
	}
	r.fi.Heal()
	for _, ix := range changed {
		if err := ix.QuarantineReason(); !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("%s: quarantine reason %v, want the injected fault", ix, err)
		}
		if st := ix.Stats(); st.Rollbacks != maintRetries+1 || st.Retries != maintRetries {
			t.Fatalf("%s: stats = %+v, want %d retries and %d rolled-back attempts", ix, st, maintRetries, maintRetries+1)
		}
	}
	if got := snapshot(); !reflect.DeepEqual(got, pre) {
		t.Fatal("a failed step left some partition changed")
	}
	if err := other.QuarantineReason(); err != nil {
		t.Fatalf("an index the mutation does not touch was quarantined: %v", err)
	}
	if st := other.Stats(); st.Rollbacks != 0 {
		t.Fatalf("untouched index stats = %+v", st)
	}
}
