package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestWALAppendCommitRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("page image payload")
	txn := w.Begin()
	lsn, err := w.AppendPageImage(txn, 7, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(txn); err != nil {
		t.Fatal(err)
	}
	recs, damaged, err := w.Records()
	if err != nil {
		t.Fatal(err)
	}
	if damaged {
		t.Fatal("clean log reported a damaged tail")
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].Kind != RecPageImage || recs[0].Page != 7 || recs[0].Txn != txn ||
		recs[0].LSN != lsn || !bytes.Equal(recs[0].Data, data) {
		t.Fatalf("image record mismatch: %+v", recs[0])
	}
	if recs[1].Kind != RecCommit || recs[1].Txn != txn || recs[1].LSN <= lsn {
		t.Fatalf("commit record mismatch: %+v", recs[1])
	}

	// Reopen: records persist and the LSN/txn counters seat above them.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs2, damaged, err := w2.Records()
	if err != nil || damaged || len(recs2) != 2 {
		t.Fatalf("after reopen: %d records, damaged=%v, err=%v", len(recs2), damaged, err)
	}
	txn2 := w2.Begin()
	if txn2 <= txn {
		t.Fatalf("txn counter did not advance past the log: %d <= %d", txn2, txn)
	}
	lsn2, err := w2.AppendPageImage(txn2, 8, data)
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 <= recs[1].LSN {
		t.Fatalf("LSN counter did not advance past the log: %d <= %d", lsn2, recs[1].LSN)
	}
}

func TestWALTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	txn := w.Begin()
	if _, err := w.AppendPageImage(txn, 1, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(txn); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Simulate a crash mid-append: half of a valid record lands at the
	// tail.
	torn := EncodeWALRecord(WALRecord{LSN: 99, Txn: 9, Kind: RecPageImage, Page: 5, Data: []byte("torn")})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs, damaged, err := w2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !damaged {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 2 {
		t.Fatalf("trusted prefix has %d records, want 2", len(recs))
	}
	// The next commit overwrites the torn bytes.
	txn2 := w2.Begin()
	if _, err := w2.AppendPageImage(txn2, 2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(txn2); err != nil {
		t.Fatal(err)
	}
	recs, _, err = w2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("after overwriting the torn tail: %d records, want 4", len(recs))
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const committers = 16
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := w.Begin()
			if _, err := w.AppendPageImage(txn, PageID(i+1), []byte{byte(i)}); err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Commit(txn)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	st := w.Stats()
	if st.Commits != committers {
		t.Fatalf("Commits = %d, want %d", st.Commits, committers)
	}
	if st.Syncs == 0 || st.Syncs > committers {
		t.Fatalf("Syncs = %d, want 1..%d", st.Syncs, committers)
	}
	if st.SyncedLSN != st.AppendedLSN {
		t.Fatalf("SyncedLSN %d != AppendedLSN %d after all commits returned", st.SyncedLSN, st.AppendedLSN)
	}
	recs, damaged, err := w.Records()
	if err != nil || damaged {
		t.Fatalf("Records: damaged=%v err=%v", damaged, err)
	}
	commits := 0
	for _, r := range recs {
		if r.Kind == RecCommit {
			commits++
		}
	}
	if commits != committers {
		t.Fatalf("%d durable commit markers, want %d", commits, committers)
	}
}

func TestWALResetKeepsLSNsMonotonic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	txn := w.Begin()
	if _, err := w.AppendPageImage(txn, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(txn); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	recs, damaged, err := w.Records()
	if err != nil || damaged || len(recs) != 0 {
		t.Fatalf("after Reset: %d records, damaged=%v, err=%v", len(recs), damaged, err)
	}
	if st := w.Stats(); st.Truncations != before.Truncations+1 {
		t.Fatalf("Truncations = %d, want %d", st.Truncations, before.Truncations+1)
	}
	txn2 := w.Begin()
	lsn, err := w.AppendPageImage(txn2, 2, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= before.AppendedLSN {
		t.Fatalf("LSN %d regressed below pre-Reset %d", lsn, before.AppendedLSN)
	}
}

// walSeedCorpus is FuzzWALRecordDecode's seed corpus: valid records of
// both kinds, two back to back, a torn tail, a bit flip, nothing, and
// garbage.
func walSeedCorpus() [][]byte {
	img := EncodeWALRecord(WALRecord{LSN: 3, Txn: 1, Kind: RecPageImage, Page: 12, Data: []byte("payload bytes")})
	commit := EncodeWALRecord(WALRecord{LSN: 4, Txn: 1, Kind: RecCommit})
	flipped := append([]byte{}, img...)
	flipped[walFrameSize+3] ^= 0x40 // bit flip inside the body
	return [][]byte{
		img,
		commit,
		append(append([]byte{}, img...), commit...),
		img[:len(img)/2], // torn tail
		flipped,
		{},
		bytes.Repeat([]byte{0xFF}, 64),
	}
}

// TestAppendWALRecordMatchesEncode: framing a record onto a buffer that
// already holds bytes appends exactly EncodeWALRecord's bytes and leaves
// the prefix alone, for every record the seed corpus decodes to.
func TestAppendWALRecordMatchesEncode(t *testing.T) {
	prefix := []byte("earlier records")
	checked := 0
	for _, b := range walSeedCorpus() {
		recs, _, _ := scanWALBytes(b)
		for _, rec := range recs {
			dst := append(make([]byte, 0, len(prefix)+1), prefix...) // forces appendWALRecord to grow
			got := appendWALRecord(dst, rec)
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("LSN %d: the prefix changed to %q", rec.LSN, got[:len(prefix)])
			}
			if want := EncodeWALRecord(rec); !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("LSN %d: appended %x, EncodeWALRecord %x", rec.LSN, got[len(prefix):], want)
			}
			checked++
		}
	}
	if checked < 3 {
		t.Fatalf("the corpus decoded to %d records, want the image, the commit and the pair", checked)
	}
}

// TestAppendPageImageAllocatesNothing: once the log buffer has grown to
// hold a transaction — and across the commit that flushes it — logging a
// page image is one copy into it: no clone of the page, no framed record
// built on the side, no fresh buffer per transaction.
func TestAppendPageImageAllocatesNothing(t *testing.T) {
	w, err := OpenWAL(filepath.Join(t.TempDir(), "log.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	page := bytes.Repeat([]byte{0x5A}, DefaultPageSize)
	txn := w.Begin()
	for i := 0; i < 64; i++ { // grow the buffer
		if _, err := w.AppendPageImage(txn, PageID(i+1), page); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(txn); err != nil {
		t.Fatal(err)
	}
	txn = w.Begin()
	if allocs := testing.AllocsPerRun(32, func() {
		if _, err := w.AppendPageImage(txn, 1, page); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendPageImage made %.1f allocations per call, want 0", allocs)
	}
}

// FuzzWALRecordDecode feeds arbitrary bytes — including truncated tails
// and bit-flipped valid records — to the record decoder, which must
// reject them cleanly (typed error, zero consumed) and never panic.
func FuzzWALRecordDecode(f *testing.F) {
	for _, b := range walSeedCorpus() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeWALRecord(b)
		if err != nil {
			if !errors.Is(err, ErrWALTruncated) && !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("unexpected error type: %v", err)
			}
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
		} else {
			if n <= 0 || n > len(b) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(b))
			}
			// A decoded record re-encodes to the bytes it came from.
			if enc := EncodeWALRecord(rec); !bytes.Equal(enc, b[:n]) {
				t.Fatalf("re-encode mismatch: %x vs %x", enc, b[:n])
			}
		}
		// The scanner shares the decoder's robustness: whatever the
		// input, it returns a trusted prefix without panicking.
		recs, validLen, _ := scanWALBytes(b)
		if validLen < 0 || validLen > int64(len(b)) {
			t.Fatalf("scan validLen %d out of range", validLen)
		}
		_ = recs
	})
}
