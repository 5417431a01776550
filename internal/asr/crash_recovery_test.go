package asr

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asr/internal/dump"
	"asr/internal/fault"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// The crash matrix runs one deterministic scene — a generated database
// with managed, durably stored indexes, mutated through the Manager —
// and freezes the files at sampled physical writes. After each crash
// every recovered index must verify clean against one committed prefix
// of the mutation sequence: every mutation whose maintenance completed
// before the crash, plus at most the one in flight (whose commit marker
// may have become durable in the very write that crashed).

// Netted maintenance makes about one physical write per retarget, so the
// scene runs enough mutations for the matrix to sample at least 36 crash
// points.
const crashSceneMutations = 20

func crashSceneSpec() gendb.Spec {
	return gendb.Spec{
		N:    3,
		C:    []int{30, 40, 40, 40},
		D:    []int{28, 36, 36},
		Fan:  []int{1, 1, 1},
		Seed: 7,
	}
}

// crashDesign is one index of the crash scene, over the generated path.
type crashDesign struct {
	ext Extension
	dec func(mcol int) Decomposition
}

// oneIndex is the scene's single full/binary index; twoIndexes adds a
// left-complete/binary one on the same path, so every retarget changes
// both.
var (
	oneIndex   = []crashDesign{{Full, BinaryDecomposition}}
	twoIndexes = []crashDesign{{Full, BinaryDecomposition}, {LeftComplete, BinaryDecomposition}}
)

// retargetPairs pairs every T_0 object holding a Next reference in base
// with a distinct T_1 retarget candidate, so each reassignment changes
// the path extension. The extents come from the generator spec, which
// assigns the same OIDs on every run.
func retargetPairs(t *testing.T, base *gom.ObjectBase, ext0, ext1 []gom.OID, n int) [][2]gom.OID {
	t.Helper()
	var out [][2]gom.OID
	for _, id := range ext0 {
		o, ok := base.Get(id)
		if !ok {
			continue
		}
		v, _ := o.Attr("Next")
		cur, isRef := v.(gom.Ref)
		if !isRef {
			continue
		}
		for _, cand := range ext1 {
			if cand != cur.OID() {
				out = append(out, [2]gom.OID{id, cand})
				break
			}
		}
		if len(out) == n {
			break
		}
	}
	if len(out) < n {
		t.Fatalf("only %d mutable sources, want %d", len(out), n)
	}
	return out
}

// runDurableScene builds the scene in dir — pre-mutation base dumped to
// base.gom, the designs' indexes saved to a manifest over a checkpointed
// FileDisk+WAL —
// then installs cp and applies the mutation sequence (with a mid-run
// checkpoint) until it finishes or the crashpoint fires. It reports how
// many mutations completed with healthy maintenance and the pairs used.
func runDurableScene(t *testing.T, dir string, designs []crashDesign, cp *storage.Crashpoint) (completed int, pairs [][2]gom.OID) {
	t.Helper()
	db, err := gendb.Generate(crashSceneSpec())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "base.gom"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dump.Save(db.Base, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fd, err := storage.OpenFileDisk(filepath.Join(dir, "pages"), 256)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(filepath.Join(dir, "pages.wal"))
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(w)
	mgr := NewManager(db.Base, pool)
	mcol := db.Path.Arity() - 1
	for _, d := range designs {
		if _, err := mgr.CreateIndex(db.Path, d.ext, d.dec(mcol)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.SaveTo(filepath.Join(dir, "manifest")); err != nil {
		t.Fatal(err)
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	pairs = retargetPairs(t, db.Base, db.Extents[0], db.Extents[1], crashSceneMutations)
	if cp != nil {
		fd.SetCrashpoint(cp)
		w.SetCrashpoint(cp)
	}
	for k, pair := range pairs {
		db.Base.MustSetAttr(pair[0], "Next", gom.Ref(pair[1]))
		if mgr.Healthy() != nil {
			break
		}
		completed++
		// Mid-run checkpoint: flushes committed pages to the data file,
		// so the matrix also crashes data-page writes, not just WAL
		// appends.
		if k == 5 {
			if err := pool.Checkpoint(); err != nil {
				break
			}
		}
	}
	fd.Close()
	w.Close()
	return completed, pairs
}

// replayedBase loads the pre-mutation dump and reapplies the first n
// mutations, reconstructing the committed state candidate.
func replayedBase(t *testing.T, dir string, pairs [][2]gom.OID, n int) *gom.ObjectBase {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "base.gom"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ob, err := dump.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs[:n] {
		ob.MustSetAttr(pr[0], "Next", gom.Ref(pr[1]))
	}
	return ob
}

// verifyRecovered recovers the frozen files in dir and opens the saved
// manifest against the candidate base (pre-mutation dump + n replayed
// mutations). It returns false if the recovered indexes are consistent
// but one of them describes a different committed prefix; any recovery
// failure, damaged page, or quarantine is fatal. On a match it
// additionally checks queries against naive traversal and that
// maintenance still works.
func verifyRecovered(t *testing.T, dir string, db0 *gendb.Database, designs []crashDesign, pairs [][2]gom.OID, n int) bool {
	t.Helper()
	ob := replayedBase(t, dir, pairs, n)
	fd, w, info, err := storage.Recover(filepath.Join(dir, "pages"))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer fd.Close()
	defer w.Close()
	if len(info.QuarantinedPages) != 0 {
		t.Fatalf("pages quarantined after redo: %+v", info)
	}
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(w)
	mgr, err := OpenFrom(ob, pool, filepath.Join(dir, "manifest"))
	if err != nil {
		t.Fatalf("OpenFrom: %v", err)
	}
	ixs := mgr.Indexes()
	if len(ixs) != len(designs) {
		t.Fatalf("reopened manager has %d indexes, want %d", len(ixs), len(designs))
	}
	for _, ix := range ixs {
		if ix.Quarantined() {
			t.Fatalf("recovered index quarantined: %v", ix.QuarantineReason())
		}
		rep, err := ix.Verify()
		if err != nil {
			t.Fatalf("Verify after recovery: %v", err)
		}
		if !rep.Clean() {
			return false // consistent, but a different committed prefix
		}
	}

	// The matched state must actually answer queries.
	path := ixs[0].Path()
	for _, start := range db0.Extents[0][:5] {
		want := naiveForward(ob, path, start, 0, path.Len())
		got, err := mgr.QueryForward(path, 0, path.Len(), gom.Ref(start))
		if err != nil {
			t.Fatalf("recovered query: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("start %v: recovered index %d results, traversal %d", start, len(got), len(want))
		}
		for _, v := range got {
			if !want[gom.ValueString(v)] {
				t.Fatalf("start %v: recovered index returned unexpected %v", start, v)
			}
		}
	}
	if hits := mgr.Stats().IndexHits; hits == 0 {
		t.Fatal("recovered queries did not hit the index")
	}

	// And absorb new updates: one more retarget through the Manager.
	more := retargetPairs(t, ob, db0.Extents[0], db0.Extents[1], 1)
	ob.MustSetAttr(more[0][0], "Next", gom.Ref(more[0][1]))
	if err := mgr.Healthy(); err != nil {
		t.Fatalf("maintenance after recovery: %v", err)
	}
	for _, ix := range ixs {
		if rep, err := ix.Verify(); err != nil || !rep.Clean() {
			t.Fatalf("Verify after post-recovery update: %v, %s", err, rep)
		}
	}
	return true
}

// TestCrashRecoveryCommittedPrefix is the acceptance property for the
// durable index stack: crash at sampled physical writes — clean cut and
// torn — and the recovered, reopened index must verify clean against
// replaying exactly the committed mutation prefix onto the saved base.
func TestCrashRecoveryCommittedPrefix(t *testing.T) { crashMatrix(t, oneIndex) }

// TestCrashRecoveryTwoIndexesOnePrefix crashes the scene with two
// indexes that every mutation changes: at every crash point both
// recovered indexes must verify clean against the same committed prefix,
// which holds because the Manager commits a mutation's changes to all
// its indexes at once. Committed index by index, a crash between an
// update's two commits left one index a mutation ahead of the other.
func TestCrashRecoveryTwoIndexesOnePrefix(t *testing.T) { crashMatrix(t, twoIndexes) }

// crashMatrix runs the scene with the designs once to count its
// post-setup writes, then once per write and tear fraction, crashing
// there, and requires the recovered indexes to match one committed
// prefix.
func crashMatrix(t *testing.T, designs []crashDesign) {
	db0, err := gendb.Generate(crashSceneSpec())
	if err != nil {
		t.Fatal(err)
	}
	sched := fault.New(0)
	ref := storage.NewCrashpoint(sched, 0, 0) // count-only reference run
	completed, _ := runDurableScene(t, t.TempDir(), designs, ref)
	if completed != crashSceneMutations {
		t.Fatalf("reference run completed %d/%d mutations", completed, crashSceneMutations)
	}
	total := int64(sched.Stats().Seen[fault.FileWrite])
	if total < 36 {
		t.Fatalf("reference run made only %d post-setup writes", total)
	}

	for _, torn := range []float64{0, 0.5, 1} {
		for at := int64(1); at <= total; at++ {
			t.Run(fmt.Sprintf("torn=%v/write=%d", torn, at), func(t *testing.T) {
				dir := t.TempDir()
				cp := storage.NewCrashpoint(fault.New(0), at, torn)
				completed, pairs := runDurableScene(t, dir, designs, cp)
				if !cp.Crashed() {
					t.Fatalf("crashpoint %d did not fire (completed %d mutations)", at, completed)
				}
				matched := -1
				for _, n := range []int{completed, completed + 1} {
					if n > len(pairs) {
						break
					}
					if verifyRecovered(t, dir, db0, designs, pairs, n) {
						matched = n
						break
					}
				}
				if matched == -1 {
					t.Fatalf("recovered indexes match no one committed prefix (completed %d)", completed)
				}
			})
		}
	}
}
