package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"asr/internal/telemetry"
)

// checkpointsObserved reads storage_checkpoint_seconds_count from the
// process registry's exposition.
func checkpointsObserved(t *testing.T) uint64 {
	t.Helper()
	var b bytes.Buffer
	if _, err := telemetry.Default().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "storage_checkpoint_seconds_count "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("storage_checkpoint_seconds_count is not exported")
	return 0
}

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
	// tail, over the end frame the next append starts at.
	torn := EncodeWALRecord(WALRecord{LSN: 99, Txn: 9, Kind: RecPageImage, Page: 5, Data: []byte("torn")})
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(torn[:len(torn)/2], st.Size()-walFrameSize); err != nil {
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

// commitTxns commits n transactions of one size-byte page image each
// and returns the LSN of the last commit marker.
func commitTxns(t *testing.T, w *WAL, n, size int) uint64 {
	t.Helper()
	data := bytes.Repeat([]byte{0xA5}, size)
	for i := 0; i < n; i++ {
		txn := w.Begin()
		if _, err := w.AppendPageImage(txn, PageID(i+1), data); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	return w.AppendedLSN()
}

// startFrameLen is the byte length of the start frame a reset writes.
var startFrameLen = len(EncodeWALRecord(WALRecord{Kind: RecStart}))

func TestWALResetKeepsLSNsMonotonic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close() }()
	commitTxns(t, w, 8, 64)
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
	if err := w.Commit(txn2); err != nil {
		t.Fatal(err)
	}

	// Reopen the recycled log twice: once holding only the short new
	// transaction, once right after a second reset with nothing logged.
	// Past the live records lie the first interval's stale ones, whose
	// LSNs are above anything a counter seated from the live records of
	// a fresh log would hand out; the watermark keeps every new LSN
	// above them, and the stale records are never read back.
	for round := 0; round < 2; round++ {
		last := w.AppendedLSN()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w, err = OpenWAL(path); err != nil {
			t.Fatal(err)
		}
		recs, damaged, err := w.Records()
		if err != nil || damaged {
			t.Fatalf("round %d: reopened log: damaged=%v err=%v", round, damaged, err)
		}
		for _, r := range recs {
			if r.LSN <= before.AppendedLSN {
				t.Fatalf("round %d: stale record LSN %d read back as live", round, r.LSN)
			}
		}
		txn := w.Begin()
		lsn, err := w.AppendPageImage(txn, 3, []byte("z"))
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= last || txn <= last {
			t.Fatalf("round %d: LSN %d / txn %d after reopen, want both above %d", round, lsn, txn, last)
		}
		if err := w.Commit(txn); err != nil {
			t.Fatal(err)
		}
		if err := w.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALTornRecordOverStaleRecords: a crash mid-append in a recycled
// log leaves the new record's torn bytes in front of the earlier
// intervals' stale records, which still decode. Records returns the
// live prefix only and reports the damage — whether the scan stops at
// a checksum failure (the tear falls inside a record) or at the LSN
// rule (the tear falls on a record boundary, so the next bytes are a
// stale record, whole and valid).
func TestWALTornRecordOverStaleRecords(t *testing.T) {
	for _, tear := range []string{"mid-record", "record boundary"} {
		t.Run(tear, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			// Two intervals of same-sized transactions start at the same
			// offset, so the live interval's records lie exactly over the
			// stale one's.
			commitTxns(t, w, 4, 64)
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
			commitTxns(t, w, 12, 64)
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
			mark := w.AppendedLSN() + 1
			commitTxns(t, w, 3, 64)
			live, _, err := w.Records()
			if err != nil || len(live) != 6 {
				t.Fatalf("live records: %d, err %v; want 6", len(live), err)
			}
			next := WALRecord{LSN: w.AppendedLSN() + 1, Txn: w.Begin(), Kind: RecPageImage, Page: 9,
				Data: bytes.Repeat([]byte{0x3C}, 64)}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, end, damaged := scanWALBytes(raw)
			if damaged {
				t.Fatal("clean log reported a damaged tail")
			}
			// The end frame overwrote the front of the stale interval's
			// fourth image; that transaction's commit marker, right behind
			// a record of the next one's size, still decodes.
			torn := EncodeWALRecord(next)
			stale, _, err := DecodeWALRecord(raw[end+int64(len(torn)):])
			if err != nil || stale.Kind != RecCommit || stale.LSN >= mark {
				t.Fatalf("no stale record behind the live end: %+v, %v", stale, err)
			}
			want := len(live)
			if tear == "mid-record" {
				torn = torn[:len(torn)/2]
			} else {
				want++ // the whole image is live; its commit never landed
			}
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(torn, end); err != nil {
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
				t.Fatal("torn record over stale records not reported")
			}
			if len(recs) != want {
				t.Fatalf("%d records, want the live %d", len(recs), want)
			}
			for i, r := range recs {
				if r.LSN < mark {
					t.Fatalf("record %d: stale LSN %d (watermark %d) read as live", i, r.LSN, mark)
				}
			}
			images, _ := foldImageLog(nil, recs, 0)
			if images.committed != 3 {
				t.Fatalf("%d committed transactions, want the live 3", images.committed)
			}
		})
	}
}

// TestCheckpointFreesNoBlocks: a checkpoint recycles the log in place —
// neither its length nor its allocated blocks fall — and the file grows
// only to the largest interval's records plus the start and end frames.
// Each checkpoint is one observation of storage_checkpoint_seconds.
// Freeing a log's blocks is what costs seconds on a file system that
// discards them synchronously; no timing shows that, this does.
func TestCheckpointFreesNoBlocks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages")
	fd, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	w, err := OpenWAL(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pool := NewBufferPool(fd, 0, LRU)
	pool.AttachWAL(w)
	var ids []PageID
	logFile := func() (size, blocks int64) {
		t.Helper()
		st, err := os.Stat(w.path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size(), st.Sys().(*syscall.Stat_t).Blocks
	}

	largest := int64(0)
	for cp := 0; cp < 20; cp++ {
		for i := 0; i < 1+(cp*7)%13; i++ {
			txn, err := pool.BeginUndo()
			if err != nil {
				t.Fatal(err)
			}
			fr, err := pool.GetNew()
			if err != nil {
				t.Fatal(err)
			}
			fr.Data()[0] = byte(cp)
			fr.MarkDirty()
			fr.Unpin()
			ids = append(ids, fr.ID())
			for _, id := range ids[max(0, len(ids)-3) : len(ids)-1] {
				fr, err := pool.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				fr.Data()[1] = byte(i)
				fr.MarkDirty()
				fr.Unpin()
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(w.path)
		if err != nil {
			t.Fatal(err)
		}
		_, live, _ := scanWALBytes(raw)
		_, start := walWatermark(raw)
		largest = max(largest, live-int64(start))

		size0, blocks0 := logFile()
		observed := checkpointsObserved(t)
		if err := pool.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n := checkpointsObserved(t) - observed; n != 1 {
			t.Fatalf("checkpoint %d: storage_checkpoint_seconds observed %d times, want 1", cp, n)
		}
		size1, blocks1 := logFile()
		if size1 < size0 || blocks1 < blocks0 {
			t.Fatalf("checkpoint %d shrank the log: %d bytes in %d blocks → %d bytes in %d blocks",
				cp, size0, blocks0, size1, blocks1)
		}
	}
	size, _ := logFile()
	if bound := largest + int64(startFrameLen+walFrameSize); size > bound {
		t.Fatalf("log is %d bytes after 20 checkpoints, want ≤ %d (largest interval %d + frames)", size, bound, largest)
	}
}

// TestRecycledLogReadsItsLivePrefixOnly: a recycled log keeps the
// length of its largest interval, and everything past its end frame is
// stale. Behind a live prefix of three transactions lies a 64 MiB sparse
// tail here; opening the log and recovering the base each read the
// prefix in chunks, stop at the end frame, and allocate under 1 MiB,
// where reading the whole file allocated it whole (twice in Recover).
func TestRecycledLogReadsItsLivePrefixOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages")
	fd, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool(fd, 0, LRU)
	pool.AttachWAL(w)
	for i := byte(0); i < 4; i++ {
		if i == 1 {
			if err := pool.Checkpoint(); err != nil { // recycles the log
				t.Fatal(err)
			}
		}
		txn, err := pool.BeginUndo()
		if err != nil {
			t.Fatal(err)
		}
		fr, err := pool.GetNew()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = i
		fr.MarkDirty()
		fr.Unpin()
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(w.Close(), fd.Close()); err != nil {
		t.Fatal(err)
	}
	const tail = 64 << 20
	if err := os.Truncate(path+".wal", tail); err != nil {
		t.Fatal(err)
	}

	allocates := func(name string, fn func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s over a %d MiB log allocated %.1f MiB, want under 1 MiB", name, tail>>20, float64(alloc)/(1<<20))
		} else {
			t.Logf("%s over a %d MiB log allocated %.1f KiB", name, tail>>20, float64(alloc)/(1<<10))
		}
	}
	allocates("OpenWAL", func() error {
		w, err := OpenWAL(path + ".wal")
		if err != nil {
			return err
		}
		return w.Close()
	})
	allocates("Recover", func() error {
		fd, w, info, err := Recover(path)
		if err != nil {
			return err
		}
		if info.CommittedTxns != 3 || info.WALTailDamaged {
			t.Errorf("recovery: %s, want the 3 transactions after the checkpoint and no torn tail", info)
		}
		return errors.Join(w.Close(), fd.Close())
	})
}

// walSeedCorpus is FuzzWALRecordDecode's seed corpus: valid records of
// both kinds, two back to back, a torn tail, a bit flip, nothing,
// garbage, and the framing of a recycled log — a start frame before
// live records, an end frame followed by a valid stale record, and a
// record whose LSN is not above its predecessor's.
func walSeedCorpus() [][]byte {
	img := EncodeWALRecord(WALRecord{LSN: 3, Txn: 1, Kind: RecPageImage, Page: 12, Data: []byte("payload bytes")})
	commit := EncodeWALRecord(WALRecord{LSN: 4, Txn: 1, Kind: RecCommit})
	start := EncodeWALRecord(WALRecord{LSN: 3, Kind: RecStart})
	flipped := append([]byte{}, img...)
	flipped[walFrameSize+3] ^= 0x40 // bit flip inside the body
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][]byte{
		img,
		commit,
		cat(img, commit),
		img[:len(img)/2], // torn tail
		flipped,
		{},
		bytes.Repeat([]byte{0xFF}, 64),
		cat(start, img, commit, walEnd[:]),
		cat(start, img, walEnd[:], commit),
		cat(commit, img),
		cat(EncodeWALRecord(WALRecord{LSN: 9, Kind: RecStart}), img, commit), // stale behind the watermark
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
		// input, it returns a trusted prefix without panicking, and it
		// trusts no record below the watermark or not above its
		// predecessor — the rule that keeps a recycled log's stale
		// records out.
		recs, validLen, _ := scanWALBytes(b)
		if validLen < 0 || validLen > int64(len(b)) {
			t.Fatalf("scan validLen %d out of range", validLen)
		}
		mark, _ := walWatermark(b)
		for i, r := range recs {
			if r.LSN < mark || (i > 0 && r.LSN <= recs[i-1].LSN) || r.Kind == RecStart {
				t.Fatalf("record %d (LSN %d, kind %d) trusted after LSN %d, watermark %d",
					i, r.LSN, r.Kind, recs[max(i-1, 0)].LSN, mark)
			}
		}
	})
}
