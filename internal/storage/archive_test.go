package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asr/internal/fault"
)

// walStream renders records in the on-disk WAL framing, the payload
// format Seal expects.
func walStream(recs []WALRecord) []byte {
	var b []byte
	for _, r := range recs {
		b = append(b, EncodeWALRecord(r)...)
	}
	return b
}

func testRecords(firstLSN uint64, txn uint64, pages ...PageID) []WALRecord {
	var recs []WALRecord
	lsn := firstLSN
	for _, p := range pages {
		recs = append(recs, WALRecord{LSN: lsn, Txn: txn, Kind: RecPageImage, Page: p, Data: []byte("img")})
		lsn++
	}
	recs = append(recs, WALRecord{LSN: lsn, Txn: txn, Kind: RecCommit})
	return recs
}

func TestArchiveSealReplayRoundTrip(t *testing.T) {
	arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(1, 1, 3, 5, 3)
	info, err := arch.Seal(walStream(recs))
	if err != nil {
		t.Fatal(err)
	}
	if info.First != 1 || info.Last != recs[len(recs)-1].LSN || info.Records != len(recs) {
		t.Fatalf("segment info mismatch: %+v", info)
	}
	var got []WALRecord
	if err := arch.Replay(0, 0, func(r WALRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Kind != recs[i].Kind || got[i].Page != recs[i].Page ||
			!bytes.Equal(got[i].Data, recs[i].Data) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
	max, err := arch.MaxLSN()
	if err != nil || max != info.Last {
		t.Fatalf("MaxLSN = %d, %v; want %d", max, err, info.Last)
	}
}

func TestArchiveSealRejectsDamagedTail(t *testing.T) {
	arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	raw := walStream(testRecords(1, 1, 2))
	if _, err := arch.Seal(raw[:len(raw)-3]); err == nil {
		t.Fatal("sealing a torn stream succeeded")
	}
}

// TestArchiveCheckpointSealing proves the WAL→archive integration: with
// an archive attached, every checkpoint rotates the log's records into
// a sealed segment instead of discarding them, and the archived chain
// replays contiguously across checkpoints.
func TestArchiveCheckpointSealing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages")
	fd, err := OpenFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	w, err := OpenWAL(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	arch, err := OpenArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	w.SetArchive(arch)
	pool := NewBufferPool(fd, 0, LRU)
	pool.AttachWAL(w)

	var commitLSNs []uint64
	writeTxn := func(fill byte) {
		t.Helper()
		txn, err := pool.BeginUndo()
		if err != nil {
			t.Fatal(err)
		}
		fr, err := pool.GetNew()
		if err != nil {
			t.Fatal(err)
		}
		for i := range fr.Data() {
			fr.Data()[i] = fill
		}
		fr.MarkDirty()
		fr.Unpin()
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		commitLSNs = append(commitLSNs, w.AppendedLSN())
	}

	for round := 0; round < 3; round++ {
		writeTxn(byte(round + 1))
		writeTxn(byte(round + 11))
		if err := pool.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	segs, damaged, err := arch.Segments()
	if err != nil || len(damaged) != 0 {
		t.Fatalf("Segments: damaged=%v err=%v", damaged, err)
	}
	if len(segs) != 3 {
		t.Fatalf("%d segments after 3 checkpoints, want 3", len(segs))
	}
	// The chain is contiguous: each segment starts right after the last.
	for i := 1; i < len(segs); i++ {
		if segs[i].First != segs[i-1].Last+1 {
			t.Fatalf("segment %d starts at %d, previous ended at %d", i, segs[i].First, segs[i-1].Last)
		}
	}
	// Every record ever logged replays, in LSN order.
	var prev uint64
	n := 0
	if err := arch.Replay(0, 0, func(r WALRecord) error {
		if r.LSN <= prev {
			t.Fatalf("replay out of order: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if prev != commitLSNs[len(commitLSNs)-1] {
		t.Fatalf("replay ended at LSN %d, last commit was %d", prev, commitLSNs[len(commitLSNs)-1])
	}
}

// TestResetSealsTheLivePrefix: a recycled log holds the earlier
// intervals' stale records past its live ones; a checkpoint seals only
// the live records — the segment covers the interval since the last
// reset, byte for byte — and never the stale bytes behind them.
func TestResetSealsTheLivePrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	arch, err := OpenArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	w.SetArchive(arch)
	commitTxns(t, w, 20, 200) // a long interval: its records go stale below
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	first := w.AppendedLSN() + 1
	last := commitTxns(t, w, 2, 200)
	raw, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	_, live, _ := scanWALBytes(raw)
	if live >= int64(len(raw))/2 {
		t.Fatalf("live prefix %d of a %d-byte log: no stale records behind it", live, len(raw))
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := arch.Segments()
	if err != nil || len(segs) != 2 {
		t.Fatalf("%d segments, err %v; want 2", len(segs), err)
	}
	if s := segs[1]; s.First != first || s.Last != last || s.Records != 4 || s.Bytes != live {
		t.Fatalf("second segment %+v, want LSNs %d..%d, 4 records, %d bytes", s, first, last, live)
	}
}

// TestArchiveSealTail: recovery with the archive attached seals a
// crashed log's surviving tail. The archive holds what the last
// checkpoint sealed; the log holds one committed transaction after it
// and then a torn commit. Recovery must archive exactly that
// transaction's records, and a second recovery has nothing new to seal.
func TestArchiveSealTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages")
	arch, err := OpenArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	recoverAndClose := func() {
		t.Helper()
		fd, w, _, err := RecoverArchived(path, arch)
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(w.Close(), fd.Close()); err != nil {
			t.Fatal(err)
		}
	}
	fd, w, _, err := RecoverArchived(path, arch)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(pages ...PageID) error {
		txn := w.Begin()
		for _, id := range pages {
			if _, err := w.AppendPageImage(txn, id, bytes.Repeat([]byte{byte(txn)}, fd.PageSize())); err != nil {
				return err
			}
		}
		return w.Commit(txn)
	}
	if err := commit(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil { // the checkpoint's seal
		t.Fatal(err)
	}
	if err := commit(2, 3); err != nil {
		t.Fatal(err)
	}
	tail, _, err := w.Records()
	if err != nil || len(tail) != 3 {
		t.Fatalf("live log: %d records, err %v; want 3", len(tail), err)
	}
	cp := NewCrashpoint(fault.New(0), 1, 0.5)
	fd.SetCrashpoint(cp)
	w.SetCrashpoint(cp)
	if err := commit(4); !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit through the crashpoint = %v, want ErrCrashed", err)
	}
	fd.Close()
	w.Close()

	recoverAndClose()
	segs, _, err := arch.Segments()
	if err != nil || len(segs) != 2 {
		t.Fatalf("%d segments, err %v; want 2", len(segs), err)
	}
	if s := segs[1]; s.First != tail[0].LSN || s.Last != tail[2].LSN || s.Records != 3 {
		t.Fatalf("sealed tail %+v, want LSNs %d..%d, 3 records", s, tail[0].LSN, tail[2].LSN)
	}
	recoverAndClose()
	if segs, _, err := arch.Segments(); err != nil || len(segs) != 2 {
		t.Fatalf("second recovery: %d segments, err %v; want 2", len(segs), err)
	}
}

func TestArchiveCorruptSegmentTyped(t *testing.T) {
	arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := arch.Seal(walStream(testRecords(1, 1, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+5] ^= 0xFF // flip a payload byte
	if err := os.WriteFile(info.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = arch.Replay(0, 0, func(WALRecord) error { return nil })
	if !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("replay over a corrupt segment: %v, want ErrArchiveCorrupt", err)
	}

	// A damaged *header* downgrades the file to the damaged list.
	raw[0] ^= 0xFF
	if err := os.WriteFile(info.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	segs, damaged, err := arch.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 || len(damaged) != 1 {
		t.Fatalf("segs=%d damaged=%d, want 0/1", len(segs), len(damaged))
	}
}

func TestArchiveGapTyped(t *testing.T) {
	arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Seal(walStream(testRecords(1, 1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Seal(walStream(testRecords(a.Last+1, 2, 3))); err != nil {
		t.Fatal(err)
	}
	c, err := arch.Seal(walStream(testRecords(a.Last+10, 3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	err = arch.Replay(0, c.Last, func(WALRecord) error { return nil })
	if !errors.Is(err, ErrArchiveGap) {
		t.Fatalf("replay across a hole: %v, want ErrArchiveGap", err)
	}
	// Replay bounded below the hole is fine.
	if err := arch.Replay(0, a.Last+1, func(WALRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestArchivePruneRetention(t *testing.T) {
	arch, err := OpenArchive(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 3; i++ {
		info, err := arch.Seal(walStream(testRecords(last+1, uint64(i+1), PageID(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		last = info.Last
	}
	segs, _, _ := arch.Segments()
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3", len(segs))
	}
	// Keep history from inside the second segment on: only the first
	// segment (entirely below) may go.
	removed, err := arch.Prune(segs[1].First + 1)
	if err != nil || removed != 1 {
		t.Fatalf("Prune removed %d, err=%v; want 1", removed, err)
	}
	segs, _, _ = arch.Segments()
	if len(segs) != 2 {
		t.Fatalf("%d segments after prune, want 2", len(segs))
	}
}

// TestArchiveTornSealLeavesNoSegment crashes a seal mid-write at every
// admitted byte count and asserts the sealed namespace stays clean — a
// torn seal leaves at worst a *.tmp file, never a half segment — and
// that a post-restart re-seal of the same range succeeds.
func TestArchiveTornSealLeavesNoSegment(t *testing.T) {
	raw := walStream(testRecords(1, 1, 2, 3, 4))
	for _, torn := range []float64{0, 0.5} {
		dir := filepath.Join(t.TempDir(), "archive")
		arch, err := OpenArchive(dir)
		if err != nil {
			t.Fatal(err)
		}
		cp := NewCrashpoint(fault.New(0), 1, torn)
		arch.SetCrashpoint(cp)
		if _, err := arch.Seal(raw); err == nil {
			t.Fatalf("torn=%v: seal under a crashpoint succeeded", torn)
		}
		segs, damaged, err := arch.Segments()
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 0 || len(damaged) != 0 {
			t.Fatalf("torn=%v: crashed seal left segs=%d damaged=%d", torn, len(segs), len(damaged))
		}
		// "Restart": a fresh archive handle over the same directory.
		arch2, err := OpenArchive(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := arch2.Seal(raw); err != nil {
			t.Fatalf("torn=%v: re-seal after crash: %v", torn, err)
		}
		n := 0
		if err := arch2.Replay(0, 0, func(WALRecord) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("torn=%v: replayed %d records, want 4", torn, n)
		}
		// The leftover is a tmp file at most.
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), SegmentSuffix) && !strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("unexpected file in archive dir: %s", e.Name())
			}
		}
	}
}
