package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"asr/internal/fault"
)

// crashWorkload runs a fixed, deterministic sequence of undo
// transactions against a WAL-attached pool over a FileDisk in dir —
// each transaction allocates a page and rewrites recent ones, with two
// checkpoints partway through. Each checkpoint recycles the log, and
// the second and third intervals log the same record sizes from the
// same offset, so every log write of the third lands on the second's
// stale records, which still decode. It returns one committed-state
// snapshot (page id → payload) per transaction whose Commit returned
// nil; the error is whatever stopped the run (nil on a clean run ending
// in a checkpoint and close).
//
// Because the schedule is deterministic, snapshot j describes the
// state after transaction j in every run — a crash run's recovered
// file can be compared against the reference run's snapshots.
func crashWorkload(dir string, cp *Crashpoint) ([]map[PageID][]byte, error) {
	const pageSize = 256
	path := filepath.Join(dir, "pages")
	fd, err := OpenFileDisk(path, pageSize)
	if err != nil {
		return nil, err
	}
	w, err := OpenWAL(path + ".wal")
	if err != nil {
		fd.Close()
		return nil, err
	}
	pool := NewBufferPool(fd, 0, LRU)
	pool.AttachWAL(w)
	if cp != nil {
		fd.SetCrashpoint(cp)
		w.SetCrashpoint(cp)
	}

	mirror := map[PageID][]byte{}
	snapshot := func() map[PageID][]byte {
		s := make(map[PageID][]byte, len(mirror))
		for id, b := range mirror {
			s[id] = append([]byte(nil), b...)
		}
		return s
	}
	var snaps []map[PageID][]byte
	var ids []PageID

	for i := 0; i < 12; i++ {
		txn, err := pool.BeginUndo()
		if err != nil {
			return snaps, err
		}
		abort := func(err error) ([]map[PageID][]byte, error) {
			txn.Rollback()
			return snaps, err
		}
		fr, err := pool.GetNew()
		if err != nil {
			return abort(err)
		}
		id := fr.ID()
		for k := range fr.Data() {
			fr.Data()[k] = byte(i + 1)
		}
		mirror[id] = append([]byte(nil), fr.Data()...)
		fr.MarkDirty()
		fr.Unpin()
		ids = append(ids, id)
		// Rewrite up to two earlier pages so recovery must pick the
		// newest image per page.
		for j := max(0, len(ids)-3); j < len(ids)-1; j++ {
			fr, err := pool.Get(ids[j])
			if err != nil {
				return abort(err)
			}
			fr.Data()[0] = byte(i + 1)
			fr.Data()[1] = byte(j + 1)
			mirror[ids[j]] = append([]byte(nil), fr.Data()...)
			fr.MarkDirty()
			fr.Unpin()
		}
		if err := txn.Commit(); err != nil {
			return abort(err)
		}
		snaps = append(snaps, snapshot())
		if i == 3 || i == 7 {
			if err := pool.Checkpoint(); err != nil {
				return snaps, err
			}
		}
	}
	if err := pool.Checkpoint(); err != nil {
		return snaps, err
	}
	if err := fd.Close(); err != nil {
		return snaps, err
	}
	return snaps, w.Close()
}

// stateMatches reports whether every page in snap reads back from fd
// with exactly the snapshot's bytes.
func stateMatches(fd *FileDisk, snap map[PageID][]byte) bool {
	buf := make([]byte, fd.PageSize())
	for id, want := range snap {
		if err := fd.Read(id, buf); err != nil {
			return false
		}
		for i := range want {
			if buf[i] != want[i] {
				return false
			}
		}
	}
	return true
}

// TestCrashRecoveryAtEveryWritePoint crashes the workload at every
// admitted physical write — clean cut and torn halfway — and asserts
// Recover restores exactly a committed prefix: the state after the last
// transaction whose Commit returned, or the next one (whose commit
// marker may have become durable in the very write that crashed).
func TestCrashRecoveryAtEveryWritePoint(t *testing.T) {
	ref := NewCrashpoint(fault.New(0), 0, 0) // count-only: measures the write schedule
	refSnaps, err := crashWorkload(t.TempDir(), ref)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	total := ref.Writes()
	if total < 10 {
		t.Fatalf("reference run made only %d writes", total)
	}
	for _, torn := range []float64{0, 0.5, 1} {
		for at := int64(1); at <= total; at++ {
			t.Run(fmt.Sprintf("torn=%v/write=%d", torn, at), func(t *testing.T) {
				dir := t.TempDir()
				cp := NewCrashpoint(fault.New(0), at, torn)
				snaps, werr := crashWorkload(dir, cp)
				if !cp.Crashed() {
					t.Fatalf("crashpoint %d did not fire (run err: %v)", at, werr)
				}
				lastOk := len(snaps) - 1

				fd, w, info, err := Recover(filepath.Join(dir, "pages"))
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				defer fd.Close()
				defer w.Close()
				if len(info.QuarantinedPages) != 0 {
					t.Fatalf("pages quarantined after redo: %v", info.QuarantinedPages)
				}
				// Every commit that returned nil was durably synced, so the
				// recovered state is at least lastOk; the in-flight commit
				// may additionally have become durable.
				matched := -1
				for j := lastOk; j <= lastOk+1 && j < len(refSnaps); j++ {
					if j >= 0 && stateMatches(fd, refSnaps[j]) {
						matched = j
						break
					}
				}
				if matched == -1 && lastOk == -1 && len(refSnaps) > 0 {
					// Crash before the first commit: an empty state (no
					// pages to check) is trivially consistent.
					matched = 0
					if !stateMatches(fd, map[PageID][]byte{}) {
						matched = -1
					}
				}
				if matched == -1 {
					t.Fatalf("recovered state matches no committed prefix (last ok txn %d, recovery %+v)", lastOk, info)
				}

				// The recovered pair must be immediately usable: run one
				// more committed transaction and read it back.
				pool := NewBufferPool(fd, 0, LRU)
				pool.AttachWAL(w)
				txn, err := pool.BeginUndo()
				if err != nil {
					t.Fatal(err)
				}
				fr, err := pool.GetNew()
				if err != nil {
					t.Fatal(err)
				}
				id := fr.ID()
				fr.Data()[0] = 0xAB
				fr.MarkDirty()
				fr.Unpin()
				if err := txn.Commit(); err != nil {
					t.Fatalf("commit after recovery: %v", err)
				}
				if err := pool.Checkpoint(); err != nil {
					t.Fatalf("checkpoint after recovery: %v", err)
				}
				buf := make([]byte, fd.PageSize())
				if err := fd.Read(id, buf); err != nil || buf[0] != 0xAB {
					t.Fatalf("post-recovery write lost: %v, byte %#x", err, buf[0])
				}
			})
		}
	}
}

// TestRecoverHealsTornDataPage pins the crash on a data-page write
// during checkpoint: the torn page fails its checksum on reopen, and
// Recover heals it from the committed WAL image.
func TestRecoverHealsTornDataPage(t *testing.T) {
	ref := NewCrashpoint(fault.New(0), 0, 0)
	if _, err := crashWorkload(t.TempDir(), ref); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	healed := false
	for at := int64(1); at <= ref.Writes(); at++ {
		dir := t.TempDir()
		cp := NewCrashpoint(fault.New(0), at, 0.5)
		crashWorkload(dir, cp)
		path := filepath.Join(dir, "pages")

		// Does the frozen file hold a corrupt page? (Only some crash
		// points tear a data page; superblock and WAL tears don't.)
		fd0, err := OpenFileDisk(path, 0)
		if err != nil {
			continue
		}
		corrupt := false
		for id := PageID(1); int(id) <= fd0.NumPages(); id++ {
			if _, err := fd0.PageLSN(id); errors.Is(err, ErrCorruptPage) {
				corrupt = true
			}
		}
		fd0.f.Close() // skip Sync: leave the frozen file untouched

		if !corrupt {
			continue
		}
		fd, w, info, err := Recover(path)
		if err != nil {
			t.Fatalf("Recover at write %d: %v", at, err)
		}
		if len(info.QuarantinedPages) != 0 {
			t.Fatalf("write %d: torn page not healed: %+v", at, info)
		}
		for id := PageID(1); int(id) <= fd.NumPages(); id++ {
			if _, err := fd.PageLSN(id); err != nil {
				t.Fatalf("write %d: page %v unreadable after recovery: %v", at, id, err)
			}
		}
		healed = true
		w.Close()
		fd.Close()
	}
	if !healed {
		t.Fatal("no crash point produced a torn data page; the matrix lost its interesting case")
	}
}
