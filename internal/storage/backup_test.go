package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asr/internal/fault"
)

// backupScene is a deterministic WAL-attached workload with archiving
// on, mirroring crashWorkload but keeping the handles open so a backup
// can be taken mid-stream. Snapshot j (with commit LSN lsns[j]) is the
// committed state after transaction j.
type backupScene struct {
	t      *testing.T
	dir    string
	fd     *FileDisk
	w      *WAL
	pool   *BufferPool
	arch   *Archive
	mirror map[PageID][]byte
	ids    []PageID
	snaps  []map[PageID][]byte
	lsns   []uint64
}

func newBackupScene(t *testing.T) *backupScene {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "pages")
	fd, err := OpenFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	arch, err := OpenArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	w.SetArchive(arch)
	pool := NewBufferPool(fd, 0, LRU)
	pool.AttachWAL(w)
	s := &backupScene{t: t, dir: dir, fd: fd, w: w, pool: pool, arch: arch, mirror: map[PageID][]byte{}}
	t.Cleanup(func() { s.fd.Close(); s.w.Close() })
	return s
}

// txn commits one transaction: a new page filled with fill, plus
// rewrites of up to two recent pages (so PITR must pick per-page images
// from different segments).
func (s *backupScene) txn(fill byte) {
	s.t.Helper()
	txn, err := s.pool.BeginUndo()
	if err != nil {
		s.t.Fatal(err)
	}
	fr, err := s.pool.GetNew()
	if err != nil {
		s.t.Fatal(err)
	}
	id := fr.ID()
	for k := range fr.Data() {
		fr.Data()[k] = fill
	}
	s.mirror[id] = append([]byte(nil), fr.Data()...)
	fr.MarkDirty()
	fr.Unpin()
	s.ids = append(s.ids, id)
	for j := max(0, len(s.ids)-3); j < len(s.ids)-1; j++ {
		fr, err := s.pool.Get(s.ids[j])
		if err != nil {
			s.t.Fatal(err)
		}
		fr.Data()[0] = fill
		fr.Data()[1] = byte(j + 1)
		s.mirror[s.ids[j]] = append([]byte(nil), fr.Data()...)
		fr.MarkDirty()
		fr.Unpin()
	}
	if err := txn.Commit(); err != nil {
		s.t.Fatal(err)
	}
	snap := make(map[PageID][]byte, len(s.mirror))
	for id, b := range s.mirror {
		snap[id] = append([]byte(nil), b...)
	}
	s.snaps = append(s.snaps, snap)
	s.lsns = append(s.lsns, s.w.AppendedLSN())
}

func (s *backupScene) checkpoint() {
	s.t.Helper()
	if err := s.pool.Checkpoint(); err != nil {
		s.t.Fatal(err)
	}
}

// shutdown checkpoints, which seals the live log's tail into the
// archive so the full history is replayable, then closes the handles.
func (s *backupScene) shutdown() {
	s.t.Helper()
	s.checkpoint()
	if err := s.fd.Close(); err != nil {
		s.t.Fatal(err)
	}
	if err := s.w.Close(); err != nil {
		s.t.Fatal(err)
	}
}

// openRestored opens a restored page file for verification.
func openRestored(t *testing.T, base string) *FileDisk {
	t.Helper()
	fd, err := OpenFileDisk(base+".pages", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	return fd
}

func TestBackupRestoreLatest(t *testing.T) {
	s := newBackupScene(t)
	for i := 0; i < 6; i++ {
		s.txn(byte(i + 1))
		if i == 2 {
			s.checkpoint()
		}
	}
	bdir := filepath.Join(s.dir, "bk")
	info, err := Backup(s.fd, s.w, bdir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Pages == 0 || info.StartLSN == 0 {
		t.Fatalf("implausible backup info: %+v", info)
	}
	s.shutdown()

	dst := filepath.Join(s.dir, "restored")
	rinfo, err := Restore(bdir, s.arch.dir, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rinfo.QuarantinedPages) != 0 || len(rinfo.PastTargetPages) != 0 {
		t.Fatalf("clean restore quarantined %v / past-target %v", rinfo.QuarantinedPages, rinfo.PastTargetPages)
	}
	fd := openRestored(t, dst)
	if !stateMatches(fd, s.snaps[len(s.snaps)-1]) {
		t.Fatal("restored state does not match the final committed snapshot")
	}
}

// TestBackupFuzzyRestoreToMidStreamLSN is the PITR core: the backup is
// taken mid-stream (its pages already hold state past every earlier
// commit), writes continue after it, and restores to each committed
// LSN — before, at, and after the backup — must reproduce exactly that
// snapshot, rewinding or rolling the fuzzy copy forward per page.
func TestBackupFuzzyRestoreToMidStreamLSN(t *testing.T) {
	s := newBackupScene(t)
	for i := 0; i < 4; i++ {
		s.txn(byte(i + 1))
	}
	s.checkpoint()
	bdir := filepath.Join(s.dir, "bk")
	binfo, err := Backup(s.fd, s.w, bdir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		s.txn(byte(i + 1))
	}
	s.shutdown()

	restorable := 0
	for j, lsn := range s.lsns {
		if lsn < binfo.StartLSN {
			continue // predates this backup — needs an older one
		}
		restorable++
		dst := filepath.Join(s.dir, "restored", fmt.Sprintf("r%d", j))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		rinfo, err := Restore(bdir, s.arch.dir, dst, lsn)
		if err != nil {
			t.Fatalf("restore to snapshot %d (LSN %d): %v", j, lsn, err)
		}
		fd := openRestored(t, dst)
		if !stateMatches(fd, s.snaps[j]) {
			t.Fatalf("restore to snapshot %d (LSN %d): state mismatch (info %+v)", j, lsn, rinfo)
		}
		// Nothing past the target is readable: pages beyond the
		// snapshot's page set must be quarantined or absent.
		inSnap := map[PageID]bool{}
		for id := range s.snaps[j] {
			inSnap[id] = true
		}
		for id := PageID(1); id <= fd.MaxPageID(); id++ {
			if inSnap[id] {
				continue
			}
			if _, perr := fd.PageLSN(id); perr == nil {
				lsn2, _ := fd.PageLSN(id)
				if lsn2 > lsn {
					t.Fatalf("restore to LSN %d: page %v readable with LSN %d past the target", lsn, id, lsn2)
				}
			}
		}
	}
	if restorable < 5 {
		t.Fatalf("only %d snapshots were restorable — the scene is not exercising PITR", restorable)
	}
}

// TestRestoreHealsTornBackupPage tears one page inside the backup copy
// itself — the fuzzy-copy race the manifest deliberately does not
// checksum — and asserts replay heals it back to the right bytes.
func TestRestoreHealsTornBackupPage(t *testing.T) {
	s := newBackupScene(t)
	for i := 0; i < 4; i++ {
		s.txn(byte(i + 1))
	}
	s.checkpoint()
	bdir := filepath.Join(s.dir, "bk")
	if _, err := Backup(s.fd, s.w, bdir, nil); err != nil {
		t.Fatal(err)
	}
	s.shutdown()

	// Tear page 2's record inside pages.bak.
	bak := filepath.Join(bdir, backupPagesName)
	raw, err := os.ReadFile(bak)
	if err != nil {
		t.Fatal(err)
	}
	physSize := pageHeaderSize + 128
	off := fileHeaderBytes + 1*physSize + pageHeaderSize // page 2's payload
	for i := 0; i < 16; i++ {
		raw[off+i] ^= 0xA5
	}
	if err := os.WriteFile(bak, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(s.dir, "restored")
	rinfo, err := Restore(bdir, s.arch.dir, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.HealedPages == 0 {
		t.Fatalf("torn backup page was not healed: %+v", rinfo)
	}
	if !stateMatches(openRestored(t, dst), s.snaps[len(s.snaps)-1]) {
		t.Fatal("restored state does not match after healing")
	}
}

func TestRestoreCorruptArchiveSegmentTyped(t *testing.T) {
	s := newBackupScene(t)
	s.txn(1)
	s.checkpoint()
	bdir := filepath.Join(s.dir, "bk")
	if _, err := Backup(s.fd, s.w, bdir, nil); err != nil {
		t.Fatal(err)
	}
	s.txn(2)
	s.shutdown()

	segs, _, err := s.arch.Segments()
	if err != nil || len(segs) == 0 {
		t.Fatalf("Segments: %d, err=%v", len(segs), err)
	}
	raw, err := os.ReadFile(segs[len(segs)-1].Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+3] ^= 0xFF
	if err := os.WriteFile(segs[len(segs)-1].Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Restore(bdir, s.arch.dir, filepath.Join(s.dir, "restored"), 0)
	if !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("restore over a corrupt segment: %v, want ErrArchiveCorrupt", err)
	}
}

func TestRestoreTargetValidation(t *testing.T) {
	s := newBackupScene(t)
	for i := 0; i < 3; i++ {
		s.txn(byte(i + 1))
	}
	s.checkpoint()
	bdir := filepath.Join(s.dir, "bk")
	info, err := Backup(s.fd, s.w, bdir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.shutdown()

	if _, err := Restore(bdir, s.arch.dir, filepath.Join(s.dir, "r1"), info.StartLSN-1); err == nil {
		t.Fatal("restore to a pre-backup LSN succeeded")
	}
	_, err = Restore(bdir, s.arch.dir, filepath.Join(s.dir, "r2"), info.EndLSN+1000)
	if !errors.Is(err, ErrPastArchive) {
		t.Fatalf("restore past the archive: %v, want ErrPastArchive", err)
	}
	// A second backup into the same directory must refuse.
	if _, err := Backup(s.fd, s.w, bdir, nil); err == nil {
		t.Fatal("backup over an existing backup succeeded")
	}
}

// TestRestoreCrashMidwayRerun crashes the restore's destination writes
// at increasing write counts (clean and torn) and asserts (a) the
// backup and archive sources are untouched and (b) simply re-running
// Restore converges to the correct state — restore is restartable.
func TestRestoreCrashMidwayRerun(t *testing.T) {
	s := newBackupScene(t)
	for i := 0; i < 5; i++ {
		s.txn(byte(i + 1))
		if i == 2 {
			s.checkpoint()
		}
	}
	bdir := filepath.Join(s.dir, "bk")
	if _, err := Backup(s.fd, s.w, bdir, nil); err != nil {
		t.Fatal(err)
	}
	s.shutdown()

	bakBefore, err := os.ReadFile(filepath.Join(bdir, backupPagesName))
	if err != nil {
		t.Fatal(err)
	}

	crashed := 0
	for at := int64(1); ; at++ {
		for _, torn := range []float64{0, 0.5} {
			dst := filepath.Join(s.dir, "restored")
			cp := NewCrashpoint(fault.New(0), at, torn)
			_, err := restoreWith(cp, bdir, s.arch.dir, dst, 0)
			if err == nil {
				continue // crashpoint past the restore's write schedule
			}
			crashed++
			// Sources untouched.
			bakAfter, rerr := os.ReadFile(filepath.Join(bdir, backupPagesName))
			if rerr != nil || string(bakAfter) != string(bakBefore) {
				t.Fatalf("at=%d torn=%v: crash modified the backup source", at, torn)
			}
			// Rerun over the half-written destination.
			if _, err := Restore(bdir, s.arch.dir, dst, 0); err != nil {
				t.Fatalf("at=%d torn=%v: rerun failed: %v", at, torn, err)
			}
			if !stateMatches(openRestored(t, dst), s.snaps[len(s.snaps)-1]) {
				t.Fatalf("at=%d torn=%v: rerun state mismatch", at, torn)
			}
		}
		// Probe whether the schedule is exhausted: a clean run under a
		// never-firing crashpoint means every write point was covered.
		cp := NewCrashpoint(fault.New(0), at, 0)
		if _, err := restoreWith(cp, bdir, s.arch.dir, filepath.Join(s.dir, "probe"), 0); err == nil {
			break
		}
		if at > 10000 {
			t.Fatal("crash matrix did not terminate")
		}
	}
	if crashed == 0 {
		t.Fatal("crash matrix never crashed — schedule empty?")
	}
}

// TestRestoreZapsPastTargetPages builds the fuzzy-copy race
// deterministically: a page that did not exist at the restore target is
// spliced into the backup at its post-backup state (as if the sweep
// copied it late). Restore must refuse to let that state survive — the
// page is zapped (reads as ErrCorruptPage, routed to quarantine/Repair)
// and reported in PastTargetPages, while every in-target page restores
// exactly.
func TestRestoreZapsPastTargetPages(t *testing.T) {
	s := newBackupScene(t)
	for i := 0; i < 4; i++ {
		s.txn(byte(i + 1))
	}
	s.checkpoint()
	target := s.lsns[3]
	bdir := filepath.Join(s.dir, "bk")
	binfo, err := Backup(s.fd, s.w, bdir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if target < binfo.StartLSN {
		t.Fatalf("scene bug: target %d < backup start %d", target, binfo.StartLSN)
	}
	for i := 4; i < 8; i++ {
		s.txn(byte(i + 1))
	}
	s.checkpoint()
	if err := s.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Splice the live record of a page born after the target into the
	// backup copy, exactly where a late sweep would have put it.
	late := s.ids[5]
	phys, ok, err := s.fd.SnapshotPage(late)
	if err != nil || !ok {
		t.Fatalf("SnapshotPage(%v): ok=%v err=%v", late, ok, err)
	}
	bak, err := os.OpenFile(filepath.Join(bdir, backupPagesName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	physSize := int64(pageHeaderSize + 128)
	if _, err := bak.WriteAt(phys, fileHeaderBytes+int64(late-1)*physSize); err != nil {
		t.Fatal(err)
	}
	if err := bak.Close(); err != nil {
		t.Fatal(err)
	}
	s.shutdown()

	// The spliced page has no committed image at or below the target
	// (it was born later), so Restore cannot rewind it — only zap it.
	dst := filepath.Join(s.dir, "restored")
	rinfo, err := Restore(bdir, s.arch.dir, dst, target)
	if err != nil {
		t.Fatal(err)
	}
	foundLate := false
	for _, id := range rinfo.PastTargetPages {
		if id == late {
			foundLate = true
		}
	}
	if !foundLate {
		t.Fatalf("page %v (state past the target) not zapped: %+v", late, rinfo)
	}
	fd := openRestored(t, dst)
	if _, perr := fd.PageLSN(late); !errors.Is(perr, ErrCorruptPage) {
		t.Fatalf("zapped page %v reads with err=%v, want ErrCorruptPage", late, perr)
	}
	if !stateMatches(fd, s.snaps[3]) {
		t.Fatal("in-target pages do not match the snapshot at the target")
	}
}
