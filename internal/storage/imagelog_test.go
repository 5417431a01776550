package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// seededHistory generates a WAL record stream of interleaved
// transactions over a small page set: each transaction logs 1–4 images
// and then, three times out of four, a commit marker — the rest are
// uncommitted tails. Transactions overlap in the stream (their records
// are merged at random, per-transaction order preserved) and LSNs count
// up from 1 in stream order. Every image's payload encodes its own LSN.
func seededHistory(rng *rand.Rand, txns int) []WALRecord {
	queues := make([][]WALRecord, txns)
	for i := range queues {
		txn := uint64(i + 1)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			queues[i] = append(queues[i], WALRecord{Txn: txn, Kind: RecPageImage, Page: PageID(1 + rng.Intn(6))})
		}
		if rng.Intn(4) > 0 {
			queues[i] = append(queues[i], WALRecord{Txn: txn, Kind: RecCommit})
		}
	}
	var out []WALRecord
	lo := 0 // transactions start in id order, at most four in flight
	for lo < txns {
		hi := min(lo+4, txns)
		i := lo + rng.Intn(hi-lo)
		if len(queues[i]) == 0 {
			if i == lo {
				lo++
			}
			continue
		}
		r := queues[i][0]
		queues[i] = queues[i][1:]
		r.LSN = uint64(len(out) + 1)
		if r.Kind == RecPageImage {
			r.Data = binary.LittleEndian.AppendUint64(nil, r.LSN)
		}
		out = append(out, r)
	}
	return out
}

// oracleImageLog is the naive two-pass reading the fold replaced: first
// collect the transactions with a commit marker at or below target, then
// take the last image per page among them.
func oracleImageLog(recs []WALRecord, target uint64) (latest map[PageID]uint64, committed, discarded int) {
	in := func(r WALRecord) bool { return target == 0 || r.LSN <= target }
	done, seen := map[uint64]bool{}, map[uint64]bool{}
	for _, r := range recs {
		if in(r) {
			seen[r.Txn] = true
			if r.Kind == RecCommit {
				done[r.Txn] = true
			}
		}
	}
	latest = map[PageID]uint64{}
	for _, r := range recs {
		if in(r) && r.Kind == RecPageImage && done[r.Txn] {
			latest[r.Page] = r.LSN
		}
	}
	return latest, len(done), len(seen) - len(done)
}

// TestArchiveImageLogFoldMatchesOracle folds seeded histories — cut at
// a random point into an archived half (itself sealed as two segments)
// and a live half — at every target LSN, and checks the single-pass
// fold against the two-pass oracle: same image per page, same
// committed and discarded counts. Targets between a transaction's
// images and its marker exercise "commit marker past the target".
func TestArchiveImageLogFoldMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := seededHistory(rng, 12+rng.Intn(12))
		cut := rng.Intn(len(recs) + 1)
		arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range [][]WALRecord{recs[:cut/2], recs[cut/2 : cut]} {
			if len(seg) > 0 {
				if _, err := arch.Seal(walStream(seg)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for target := uint64(0); target <= uint64(len(recs)); target++ {
			got, err := foldImageLog(arch, recs[cut:], target)
			if err != nil {
				t.Fatalf("seed %d target %d: %v", seed, target, err)
			}
			want, committed, discarded := oracleImageLog(recs, target)
			if got.committed != committed || got.discarded != discarded {
				t.Fatalf("seed %d cut %d target %d: committed/discarded = %d/%d, oracle %d/%d",
					seed, cut, target, got.committed, got.discarded, committed, discarded)
			}
			if len(got.latest) != len(want) {
				t.Fatalf("seed %d cut %d target %d: images for %d pages, oracle %d",
					seed, cut, target, len(got.latest), len(want))
			}
			for page, lsn := range want {
				img := got.latest[page]
				if img.LSN != lsn || binary.LittleEndian.Uint64(img.Data) != lsn {
					t.Fatalf("seed %d cut %d target %d: page %v folded to LSN %d, oracle %d",
						seed, cut, target, page, img.LSN, lsn)
				}
			}
		}
	}
}

// TestScrubHealsThreeFromArchiveOnlyHistory plants three corruptions
// whose only surviving images are in the archive (the live log was
// truncated by a checkpoint) and requires one RunOnce to heal all
// three byte-exactly. The archive is deleted as soon as the first page
// is healed: the pass folds its heal source once and must not go back
// to the segments for the second and third page.
func TestScrubHealsThreeFromArchiveOnlyHistory(t *testing.T) {
	s := newBackupScene(t)
	for i := 0; i < 5; i++ {
		s.txn(byte(i + 1))
		if i == 2 {
			s.checkpoint() // two segments of history
		}
	}
	s.checkpoint()
	if recs, _, err := s.w.Records(); err != nil || len(recs) != 0 {
		t.Fatalf("live log after checkpoint: %d records, err %v", len(recs), err)
	}
	planted := []PageID{s.ids[0], s.ids[2], s.ids[4]}
	for _, id := range planted {
		if err := s.fd.CorruptPage(id, 4); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewScrubber(s.fd, s.w, ScrubConfig{OnCorrupt: func(PageID, bool) {
		if err := os.RemoveAll(s.arch.dir); err != nil {
			t.Error(err)
		}
	}})
	res, err := sc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Found) != 3 || len(res.Healed) != 3 || len(res.Unhealed) != 0 {
		t.Fatalf("scrub pass: found=%v healed=%v unhealed=%v", res.Found, res.Healed, res.Unhealed)
	}
	buf := make([]byte, s.fd.PageSize())
	for _, id := range planted {
		if err := s.fd.Read(id, buf); err != nil {
			t.Fatalf("page %v unreadable after heal: %v", id, err)
		}
		if !bytes.Equal(buf, s.mirror[id]) {
			t.Fatalf("page %v healed to wrong bytes", id)
		}
	}
}

// TestScrubStartCountsFailedPass: a background pass that dies on an IO
// error (here: the page file is gone from under it) is counted in
// scrub_pass_errors_total instead of vanishing.
func TestScrubStartCountsFailedPass(t *testing.T) {
	s := newBackupScene(t)
	s.txn(1)
	s.checkpoint()
	if err := s.fd.Close(); err != nil {
		t.Fatal(err)
	}
	before := telScrubPassErrors.Value()
	sc := NewScrubber(s.fd, s.w, ScrubConfig{}) // Interval 0: one pass
	sc.Start()
	<-sc.done // the single pass has ended by itself
	sc.Stop()
	if got := telScrubPassErrors.Value() - before; got != 1 {
		t.Fatalf("scrub_pass_errors_total moved by %d, want 1", got)
	}
	if sc.Passes() != 0 {
		t.Fatalf("a failed pass was counted as completed (%d)", sc.Passes())
	}
}

// TestTxnIDsUniqueAcrossRestart: an uncommitted tail that recovery
// sealed into the archive must stay uncommitted for good. Process 1
// commits page A (txn 1) and crashes with an image of page B logged but
// no marker (txn 2); process 2 recovers, sealing that tail and
// resetting the log; process 3 opens the empty log and commits two
// transactions. Were ids or LSNs handed out again, process 3's second
// marker would adopt the archived image of B.
func TestTxnIDsUniqueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages")
	arch, err := OpenArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	const pageA, pageB, pageC = PageID(1), PageID(2), PageID(3)
	open := func() (*FileDisk, *WAL) {
		t.Helper()
		fd, w, _, err := RecoverArchived(path, arch)
		if err != nil {
			t.Fatal(err)
		}
		return fd, w
	}
	shut := func(fd *FileDisk, w *WAL) {
		t.Helper()
		if err := errors.Join(w.Close(), fd.Close()); err != nil {
			t.Fatal(err)
		}
	}
	logTxn := func(fd *FileDisk, w *WAL, commit bool, pages ...PageID) {
		t.Helper()
		txn := w.Begin()
		for _, id := range pages {
			img := bytes.Repeat([]byte{byte(txn)}, fd.PageSize())
			if _, err := w.AppendPageImage(txn, id, img); err != nil {
				t.Fatal(err)
			}
		}
		if commit {
			if err := w.Commit(txn); err != nil {
				t.Fatal(err)
			}
		}
	}

	fd, w := open() // process 1
	logTxn(fd, w, true, pageA)
	logTxn(fd, w, false, pageB)
	shut(fd, w) // Close flushes the tail: the crash left it on disk

	fd, w = open() // process 2: recovery seals the tail, resets the log
	shut(fd, w)
	archived, err := arch.MaxLSN()
	if err != nil || archived == 0 {
		t.Fatalf("archive after recovery: max LSN %d, err %v", archived, err)
	}

	fd, w = open() // process 3
	defer shut(fd, w)
	logTxn(fd, w, true, pageA)
	logTxn(fd, w, true, pageC)
	live, _, err := w.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range live {
		if r.LSN <= archived {
			t.Errorf("live record txn %d has LSN %d, the archive already holds up to %d", r.Txn, r.LSN, archived)
		}
	}
	images, err := foldImageLog(arch, live, 0)
	if err != nil {
		t.Fatal(err)
	}
	if img, ok := images.latest[pageB]; ok {
		t.Errorf("fold adopted the uncommitted image of page B (txn %d, LSN %d)", img.Txn, img.LSN)
	}
	if images.committed != 3 || images.discarded != 1 {
		t.Errorf("fold: %d committed, %d discarded, want 3 and 1", images.committed, images.discarded)
	}
}
