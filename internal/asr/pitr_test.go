package asr

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asr/internal/dump"
	"asr/internal/fault"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// TestPITREndToEnd is the acceptance scenario for the backup/archive/
// restore stack, end to end through the index layer:
//
//  1. a durable scene (generated base, managed index, FileDisk+WAL with
//     segment archiving) serves 8 concurrent query workers;
//  2. an online backup is taken under that load — zero failed queries;
//  3. mutations continue after the backup, each one's commit LSN
//     recorded; the scrubber heals corruption planted on a cold page
//     while the workers keep querying; then the process "crashes"
//     (a crashpoint freezes the files mid-write);
//  4. the operator path runs: seal the crashed WAL's tail into the
//     archive, Restore the backup to a mid-stream LSN, Recover the
//     restored base, OpenFrom the restored manifest;
//  5. the restored index — after Repair of anything the restore
//     quarantined as past-target — answers every query byte-identically
//     to the dump-replay oracle at exactly that mutation prefix.
func TestPITREndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := gendb.Generate(crashSceneSpec())
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "base.gom")
	f, err := os.Create(basePath)
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
	arch, err := storage.OpenArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	w.SetArchive(arch)
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(w)
	mgr := NewManager(db.Base, pool)
	mcol := db.Path.Arity() - 1
	if _, err := mgr.CreateIndex(db.Path, Full, BinaryDecomposition(mcol)); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "manifest")
	if err := mgr.SaveTo(manifestPath); err != nil {
		t.Fatal(err)
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := mgr.Indexes()[0].Path()

	// 8 query workers hammer the index for the whole online phase.
	var (
		stopWorkers = make(chan struct{})
		workerWG    sync.WaitGroup
		queryFails  atomic.Int64
		queriesRun  atomic.Int64
	)
	for wk := 0; wk < 8; wk++ {
		workerWG.Add(1)
		go func(wk int) {
			defer workerWG.Done()
			starts := db.Extents[0]
			for i := 0; ; i++ {
				select {
				case <-stopWorkers:
					return
				default:
				}
				start := starts[(wk*7+i)%len(starts)]
				if _, err := mgr.QueryForward(path, 0, path.Len(), gom.Ref(start)); err != nil {
					queryFails.Add(1)
				}
				queriesRun.Add(1)
			}
		}(wk)
	}

	// On a loaded test machine the worker goroutines may not be scheduled
	// for a while; the "under load" claims below are vacuous until every
	// worker has actually queried at least once.
	for deadline := time.Now().Add(30 * time.Second); queriesRun.Load() < 8; {
		if time.Now().After(deadline) {
			t.Fatal("query workers never started")
		}
		time.Sleep(time.Millisecond)
	}

	pairs := retargetPairs(t, db.Base, db.Extents[0], db.Extents[1], crashSceneMutations)
	mutate := func(k int) uint64 {
		t.Helper()
		db.Base.MustSetAttr(pairs[k][0], "Next", gom.Ref(pairs[k][1]))
		if err := mgr.Healthy(); err != nil {
			t.Fatalf("maintenance for mutation %d: %v", k, err)
		}
		return w.AppendedLSN()
	}

	lsns := make([]uint64, crashSceneMutations)
	for k := 0; k < 4; k++ {
		lsns[k] = mutate(k)
	}
	if err := pool.Checkpoint(); err != nil { // seals mutations 0..3 into the archive
		t.Fatal(err)
	}

	// Online backup under load, manifest and base dump riding along.
	bdir := filepath.Join(dir, "bk")
	failsBefore := queryFails.Load()
	binfo, err := storage.Backup(fd, w, bdir, map[string]string{
		"manifest": manifestPath,
		"gom":      basePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := queryFails.Load() - failsBefore; got != 0 {
		t.Fatalf("%d queries failed during the online backup", got)
	}

	// Keep writing past the backup.
	for k := 4; k < 8; k++ {
		lsns[k] = mutate(k)
	}
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Plant corruption on a cold page and let the scrubber heal it from
	// the archive while the workers are still live: the page is readable
	// again before any query pulls it from disk.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var planted storage.PageID = 2
	if err := fd.CorruptPage(planted, 8); err != nil {
		t.Fatal(err)
	}
	healed := make(chan bool, 1)
	sc := storage.NewScrubber(fd, w, storage.ScrubConfig{OnCorrupt: func(id storage.PageID, ok bool) {
		if id == planted {
			select {
			case healed <- ok:
			default: // a later pass reporting it again
			}
		}
	}})
	sc.Start()
	var ok bool
	select {
	case ok = <-healed:
	case <-time.After(30 * time.Second):
		t.Fatal("the scrubber never reached the planted page")
	}
	sc.Stop()
	if !ok || len(sc.Unhealed()) != 0 {
		t.Fatalf("scrubber on planted corruption: healed=%v unhealed=%v", ok, sc.Unhealed())
	}

	for k := 8; k < crashSceneMutations; k++ {
		lsns[k] = mutate(k)
	}

	close(stopWorkers)
	workerWG.Wait()
	if queryFails.Load() != 0 {
		t.Fatalf("%d of %d queries failed during the online phase", queryFails.Load(), queriesRun.Load())
	}
	if queriesRun.Load() == 0 {
		t.Fatal("workers never ran a query")
	}

	// Crash: the very next physical write tears and freezes the files.
	cp := storage.NewCrashpoint(fault.New(0), 1, 0.5)
	fd.SetCrashpoint(cp)
	w.SetCrashpoint(cp)
	db.Base.MustSetAttr(pairs[0][0], "Next", gom.Ref(pairs[0][1])) // dies mid-maintenance
	_ = mgr.Healthy()                                              // expected to fail; the files are frozen
	fd.Close()
	w.Close()

	// Restart: recovery with the archive attached seals the crashed
	// log's surviving tail. Then restore the backup to mid-stream targets
	// and prove each against the oracle.
	rfd, rw, _, err := storage.RecoverArchived(filepath.Join(dir, "pages"), arch)
	if err != nil {
		t.Fatal(err)
	}
	rw.Close()
	rfd.Close()
	for _, k := range []int{5, 7, crashSceneMutations - 1} {
		if lsns[k] < binfo.StartLSN {
			t.Fatalf("scene bug: mutation %d (LSN %d) predates the backup start %d", k, lsns[k], binfo.StartLSN)
		}
		verifyPITR(t, dir, bdir, filepath.Join(dir, "archive"), db, pairs, k, lsns[k])
	}
}

// verifyPITR restores the backup to targetLSN (the commit LSN of
// mutation k), recovers and reopens it, repairs anything quarantined as
// past-target, and checks the index verifies clean and answers exactly
// like the dump-replay oracle at prefix k+1.
func verifyPITR(t *testing.T, dir, bdir, archDir string, db0 *gendb.Database, pairs [][2]gom.OID, k int, targetLSN uint64) {
	t.Helper()
	dst := filepath.Join(dir, fmt.Sprintf("restored-%d", k), "BASE")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	rinfo, err := storage.Restore(bdir, archDir, dst, targetLSN)
	if err != nil {
		t.Fatalf("restore to mutation %d (LSN %d): %v", k, targetLSN, err)
	}

	fd, w, _, err := storage.Recover(dst + ".pages")
	if err != nil {
		t.Fatalf("recover restored base: %v", err)
	}
	defer fd.Close()
	defer w.Close()
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(w)

	// The oracle: the backup's own restored dump plus exactly the
	// mutations committed at or before the target LSN.
	obFile, err := os.Open(dst + ".gom")
	if err != nil {
		t.Fatal(err)
	}
	ob, err := dump.Load(obFile)
	obFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs[:k+1] {
		ob.MustSetAttr(pr[0], "Next", gom.Ref(pr[1]))
	}

	mgr, err := OpenFrom(ob, pool, dst+".manifest")
	if err != nil {
		t.Fatalf("OpenFrom restored manifest: %v", err)
	}
	ixs := mgr.Indexes()
	if len(ixs) != 1 {
		t.Fatalf("restored manager has %d indexes, want 1", len(ixs))
	}
	ix := ixs[0]
	// Pages past the target were deliberately quarantined by Restore;
	// Repair rebuilds the owning partitions from the replayed base.
	if ix.Quarantined() {
		if len(rinfo.PastTargetPages) == 0 && len(rinfo.QuarantinedPages) == 0 {
			t.Fatalf("index quarantined (%v) but restore reported no damaged pages", ix.QuarantineReason())
		}
		if _, err := mgr.Repair(ix); err != nil {
			t.Fatalf("Repair after PITR: %v", err)
		}
	}
	rep, err := ix.Verify()
	if err != nil {
		t.Fatalf("Verify restored index: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("restore to mutation %d: index does not match the oracle prefix: %s", k, rep)
	}

	// Byte-identical answers: every query against the restored index
	// matches naive traversal of the oracle base.
	path := ix.Path()
	for _, start := range db0.Extents[0][:8] {
		want := naiveForward(ob, path, start, 0, path.Len())
		got, err := mgr.QueryForward(path, 0, path.Len(), gom.Ref(start))
		if err != nil {
			t.Fatalf("restored query: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("restore to mutation %d, start %v: %d results, oracle %d", k, start, len(got), len(want))
		}
		for _, v := range got {
			if !want[gom.ValueString(v)] {
				t.Fatalf("restore to mutation %d, start %v: unexpected %v", k, start, v)
			}
		}
	}
}
