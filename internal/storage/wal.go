package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
)

// WAL record kinds.
const (
	RecPageImage byte = 1 // full physical page image
	RecCommit    byte = 2 // transaction commit marker
	RecStart     byte = 3 // start frame: the log's LSN watermark, at offset 0 only
)

// WAL record framing:
//
//	len u32 | crc u32 | body
//	body = lsn u64 | txn u64 | kind u8 | page u64 | payload
//
// len counts body bytes, crc is CRC32C over body.
//
// The log file is recycled, not truncated: a checkpoint writes a start
// frame (a RecStart record whose LSN is the watermark) at offset 0 and
// the next records overwrite the old ones in place, so the bytes past
// the live records are stale records of earlier intervals — many still
// decode. Every flush therefore ends with an end frame (walEnd), which
// the next flush overwrites, and a record is trusted only if its LSN is
// at or above the watermark and above its predecessor's, which no stale
// record's is. Scanning stops cleanly at the end frame; a record that
// is short, fails its checksum or fails the LSN rule is the torn tail a
// crash mid-append leaves, and everything before it is trusted. A log
// without a start frame (never recycled) has watermark 0.
const (
	walFrameSize  = 8             // len + crc
	walBodyHeader = 8 + 8 + 1 + 8 // lsn + txn + kind + page
	maxWALRecord  = 1 << 24       // sanity cap against garbage length fields

	// maxReusedWALBuf bounds the log buffer a flush hands back for reuse:
	// a maintenance transaction's few pages are kept, a bulk load's
	// megabytes are not held for the life of the log.
	maxReusedWALBuf = 1 << 20
)

// walEnd is the end frame: body length zero, and a fixed mark in the
// checksum field so that zeroed bytes never read as one.
var walEnd = [walFrameSize]byte{4: 'E', 5: 'N', 6: 'D', 7: '.'}

// Errors the record codec reports. ErrWALTruncated means the bytes end
// mid-record (a torn tail); ErrWALCorrupt means framing or checksum is
// wrong.
var (
	ErrWALTruncated = errors.New("wal: truncated record")
	ErrWALCorrupt   = errors.New("wal: corrupt record")
)

// WALRecord is one decoded log record.
type WALRecord struct {
	LSN  uint64
	Txn  uint64
	Kind byte
	Page PageID
	Data []byte // page payload for RecPageImage, nil for RecCommit
}

// appendWALRecord frames rec onto dst — the codec's one encoder. The
// payload is copied once, straight into place; the checksum is taken
// over the body where it lies.
func appendWALRecord(dst []byte, rec WALRecord) []byte {
	start := len(dst)
	n := walFrameSize + walBodyHeader + len(rec.Data)
	dst = slices.Grow(dst, n)[:start+n]
	frame := dst[start:]
	body := frame[walFrameSize:]
	binary.LittleEndian.PutUint64(body[0:], rec.LSN)
	binary.LittleEndian.PutUint64(body[8:], rec.Txn)
	body[16] = rec.Kind
	binary.LittleEndian.PutUint64(body[17:], uint64(rec.Page))
	copy(body[walBodyHeader:], rec.Data)
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	return dst
}

// DecodeWALRecord parses one record from the front of b, returning the
// record and how many bytes it consumed. ErrWALTruncated means b ends
// mid-record; ErrWALCorrupt means the framing or checksum is invalid.
// It never panics on arbitrary input (fuzzed).
func DecodeWALRecord(b []byte) (WALRecord, int, error) {
	if len(b) < walFrameSize {
		return WALRecord{}, 0, ErrWALTruncated
	}
	ln := binary.LittleEndian.Uint32(b[0:])
	if ln < walBodyHeader || ln > maxWALRecord {
		return WALRecord{}, 0, fmt.Errorf("%w: body length %d", ErrWALCorrupt, ln)
	}
	if len(b) < walFrameSize+int(ln) {
		return WALRecord{}, 0, ErrWALTruncated
	}
	body := b[walFrameSize : walFrameSize+int(ln)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return WALRecord{}, 0, fmt.Errorf("%w: checksum mismatch", ErrWALCorrupt)
	}
	rec := WALRecord{
		LSN:  binary.LittleEndian.Uint64(body[0:]),
		Txn:  binary.LittleEndian.Uint64(body[8:]),
		Kind: body[16],
		Page: PageID(binary.LittleEndian.Uint64(body[17:])),
	}
	switch rec.Kind {
	case RecPageImage:
		rec.Data = append([]byte(nil), body[walBodyHeader:]...)
	case RecCommit, RecStart:
		if ln != walBodyHeader {
			return WALRecord{}, 0, fmt.Errorf("%w: kind %d with payload", ErrWALCorrupt, rec.Kind)
		}
	default:
		return WALRecord{}, 0, fmt.Errorf("%w: unknown kind %d", ErrWALCorrupt, rec.Kind)
	}
	return rec, walFrameSize + int(ln), nil
}

// walWatermark reads the start frame at the front of b: the LSN
// watermark and the frame's length, both 0 when b starts with none.
func walWatermark(b []byte) (mark uint64, n int) {
	rec, n, err := DecodeWALRecord(b)
	if err != nil || rec.Kind != RecStart {
		return 0, 0
	}
	return rec.LSN, n
}

// walScanChunk is how much of a log one read brings in. A scan reads
// the log in chunks and stops at the end frame, so the stale tail of a
// recycled log — as long as its longest interval — is never read.
const walScanChunk = 64 << 10

// walScan is what a scan of a log found: the live records, the start
// frame's watermark (0 without one), and validLen and tailDamaged as
// scanWALBytes reports them.
type walScan struct {
	recs        []WALRecord
	mark        uint64
	validLen    int64
	tailDamaged bool
}

// scanWAL decodes the live records of the first size bytes of r under
// the rules above: past the start frame, until the end frame, the bytes
// running out, or an untrusted record. It reads r in walScanChunk
// pieces and holds one record at a time besides the records it returns.
// An error is a failed read, never a damaged log.
func scanWAL(r io.ReaderAt, size int64) (s walScan, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), int(min(size, walScanChunk)))
	var frame []byte // the record being decoded, reused
	for s.validLen < size {
		head, err := br.Peek(walFrameSize)
		if err != nil && err != io.EOF {
			return s, err
		}
		if bytes.Equal(head, walEnd[:]) {
			return s, nil
		}
		// A length field out of bounds leaves the frame header alone to
		// fail decoding.
		n := int64(walFrameSize)
		if len(head) == walFrameSize {
			if ln := binary.LittleEndian.Uint32(head); ln <= maxWALRecord {
				n += int64(ln)
			}
		}
		if s.validLen+n > size { // ends mid-record
			s.tailDamaged = true
			return s, nil
		}
		frame = slices.Grow(frame[:0], int(n))[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return s, err
		}
		if s.validLen == 0 {
			if mark, m := walWatermark(frame); m > 0 {
				s.mark, s.validLen = mark, int64(m)
				continue
			}
		}
		rec, _, err := DecodeWALRecord(frame)
		if err != nil || rec.Kind == RecStart || rec.LSN < s.mark ||
			(len(s.recs) > 0 && rec.LSN <= s.recs[len(s.recs)-1].LSN) {
			s.tailDamaged = true
			return s, nil
		}
		s.recs = append(s.recs, rec)
		s.validLen += n
	}
	return s, nil
}

// scanWALBytes is scanWAL over a log (or a sealed segment's payload)
// held in memory. tailDamaged reports that trailing bytes were
// discarded. validLen is the byte length of the trusted prefix, start
// frame included: the offset the next record is written at.
func scanWALBytes(b []byte) (recs []WALRecord, validLen int64, tailDamaged bool) {
	s, _ := scanWAL(bytes.NewReader(b), int64(len(b))) // reading memory cannot fail
	return s.recs, s.validLen, s.tailDamaged
}

// scanWALFile is scanWAL over the log file at path.
func scanWALFile(path string) (walScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return walScan{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return walScan{}, err
	}
	return scanWAL(f, st.Size())
}

// WALStats counts log activity. Commits counts commit records appended
// (durability is decided by the sync that follows); Syncs counts
// physical fsync batches, so Commits/Syncs is the group-commit ratio.
// Truncations counts resets: checkpoints that recycled the log.
type WALStats struct {
	Records     uint64
	Commits     uint64
	Syncs       uint64
	Truncations uint64
	AppendedLSN uint64
	SyncedLSN   uint64
}

// WAL is a physical write-ahead log: page-image records grouped into
// transactions, committed by a commit marker made durable with fsync.
// Concurrent committers are batched: whoever finds the log un-synced
// flushes everything appended so far with one write+fsync and wakes the
// rest (group commit).
//
// A WAL is safe for concurrent use.
type WAL struct {
	mu       sync.Mutex
	flushing sync.Cond
	f        *os.File
	path     string

	buf      []byte // appended, not yet flushed
	bufStart int64  // file offset of buf[0], where the end frame lies

	nextLSN        uint64
	nextTxn        uint64
	appendedLSN    uint64
	syncedLSN      uint64
	pendingCommits int // commits in buf, for the group-commit histogram
	inFlush        bool

	stats WALStats
	cp    *Crashpoint
	arch  *Archive // when set, Reset seals the log into it instead of discarding
}

// OpenWAL opens (or creates) a log file, scanning it to find the valid
// prefix and to seat the LSN and transaction counters above everything
// already logged and at or above the start frame's watermark — which
// keeps every stale record below the next reset's watermark. A damaged
// tail is ignored (it is overwritten by the next append). The
// transaction counter never starts below the LSN counter: every
// transaction consumes at least one LSN, so an id handed out after a
// restart is above every id logged before it even when the log it was
// logged in has since been reset.
func OpenWAL(path string) (*WAL, error) {
	w, _, err := openWAL(path)
	return w, err
}

// openWAL is OpenWAL also returning the scan it seated the counters
// from, so that recovery reads the log once.
func openWAL(path string) (*WAL, walScan, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, walScan{}, fmt.Errorf("storage: open wal %s: %w", path, err)
	}
	scan, err := scanWALFile(path)
	if err != nil {
		f.Close()
		return nil, walScan{}, err
	}
	w := &WAL{f: f, path: path, bufStart: scan.validLen, nextLSN: max(scan.mark, 1), nextTxn: 1}
	w.flushing.L = &w.mu
	for _, r := range scan.recs {
		if r.LSN >= w.nextLSN {
			w.nextLSN = r.LSN + 1
		}
		if r.Txn >= w.nextTxn {
			w.nextTxn = r.Txn + 1
		}
	}
	w.nextTxn = max(w.nextTxn, w.nextLSN)
	w.appendedLSN = w.nextLSN - 1
	w.syncedLSN = w.appendedLSN
	return w, scan, nil
}

// SetCrashpoint installs (or clears) the crashpoint guarding log
// writes and fsyncs. Share one Crashpoint between the WAL and its
// FileDisk so a simulated kill can land on either file.
func (w *WAL) SetCrashpoint(cp *Crashpoint) {
	w.mu.Lock()
	w.cp = cp
	w.mu.Unlock()
}

// SetArchive attaches (or detaches, with nil) a WAL segment archive.
// With an archive attached, Reset — the recycling every checkpoint
// performs — first seals the log's live records into the archive, so
// history survives checkpoints and point-in-time recovery stays
// possible from the last backup forward.
func (w *WAL) SetArchive(a *Archive) {
	w.mu.Lock()
	w.arch = a
	w.mu.Unlock()
}

// Archive returns the attached segment archive, nil when archiving is
// off.
func (w *WAL) Archive() *Archive {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.arch
}

// AppendedLSN returns the LSN of the last record appended (durable or
// not). Backup uses it as the fuzzy-copy watermark.
func (w *WAL) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendedLSN
}

// Stats returns a snapshot of the log counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.AppendedLSN = w.appendedLSN
	s.SyncedLSN = w.syncedLSN
	return s
}

// SetNextLSN raises the LSN counter (never lowers it), and the
// transaction counter with it; Recover uses it to keep LSNs and
// transaction ids monotonic across a log reset.
func (w *WAL) SetNextLSN(lsn uint64) {
	w.mu.Lock()
	if lsn > w.nextLSN {
		w.nextLSN = lsn
		w.nextTxn = max(w.nextTxn, lsn)
		w.appendedLSN = lsn - 1
		w.syncedLSN = lsn - 1
	}
	w.mu.Unlock()
}

// Begin starts a transaction and returns its id. Purely an id
// allocation — transactions exist in the log as the records that cite
// them.
func (w *WAL) Begin() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := w.nextTxn
	w.nextTxn++
	return id
}

// append frames rec with the next LSN straight into the buffer; must be
// called with w.mu held.
func (w *WAL) appendLocked(rec WALRecord) uint64 {
	rec.LSN = w.nextLSN
	w.nextLSN++
	w.buf = appendWALRecord(w.buf, rec)
	w.appendedLSN = rec.LSN
	w.stats.Records++
	telWALRecords.Inc()
	return rec.LSN
}

// AppendPageImage logs the page's post-image under txn and returns the
// record's LSN. The record is buffered — data is copied into the log
// buffer and not retained; durability comes with the next Sync (every
// Commit syncs).
func (w *WAL) AppendPageImage(txn uint64, id PageID, data []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cp != nil && w.cp.Crashed() {
		return 0, fmt.Errorf("storage: wal append: %w", ErrCrashed)
	}
	return w.appendLocked(WALRecord{Txn: txn, Kind: RecPageImage, Page: id, Data: data}), nil
}

// Commit appends the commit marker for txn and makes it durable,
// batching with any other committers waiting on the same fsync.
func (w *WAL) Commit(txn uint64) error {
	w.mu.Lock()
	lsn := w.appendLocked(WALRecord{Txn: txn, Kind: RecCommit})
	w.pendingCommits++
	w.stats.Commits++
	telWALCommits.Inc()
	w.mu.Unlock()
	return w.Sync(lsn)
}

// Sync makes every record with LSN ≤ upTo durable. Concurrent callers
// group-commit: one flusher writes and fsyncs the whole buffered tail,
// the rest wait on its result.
func (w *WAL) Sync(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.syncedLSN >= upTo {
			return nil
		}
		if !w.inFlush {
			break
		}
		w.flushing.Wait()
	}
	// Become the flusher for everything appended so far. The write ends
	// with the end frame, at the offset the next flush starts from.
	buf, start, target, batch := w.buf, w.bufStart, w.appendedLSN, w.pendingCommits
	n := len(buf)
	if n > 0 {
		buf = append(buf, walEnd[:]...)
	}
	w.buf, w.bufStart, w.pendingCommits = nil, start+int64(n), 0
	w.inFlush = true
	w.mu.Unlock()

	err := w.flush(buf, start)

	w.mu.Lock()
	w.inFlush = false
	if err == nil {
		if w.buf == nil && cap(buf) <= maxReusedWALBuf {
			w.buf = buf[:0] // written out: the next transaction frames into it
		}
		w.syncedLSN = target
		w.stats.Syncs++
		telWALSyncs.Inc()
		if batch > 0 {
			telWALBatch.Observe(float64(batch))
		}
	} else {
		// Put the unflushed bytes back so a later retry re-covers them
		// (idempotent: rewriting the same offsets is safe).
		w.buf = append(buf[:n], w.buf...)
		w.bufStart = start
		w.pendingCommits += batch
	}
	w.flushing.Broadcast()
	if err != nil {
		return err
	}
	if w.syncedLSN >= upTo {
		return nil
	}
	// More was appended while we flushed and our target still isn't
	// durable (cannot happen for a caller syncing its own append, but
	// keep the loop total).
	return w.syncLockedTail(upTo)
}

// syncLockedTail re-enters the wait loop with w.mu held.
func (w *WAL) syncLockedTail(upTo uint64) error {
	w.mu.Unlock()
	defer w.mu.Lock()
	return w.Sync(upTo)
}

// flush performs the guarded physical write + fsync; called without
// w.mu so appends proceed during the fsync.
func (w *WAL) flush(buf []byte, off int64) error {
	w.mu.Lock()
	cp := w.cp
	w.mu.Unlock()
	if len(buf) > 0 {
		if err := cp.writeAt(w.f, buf, off); err != nil {
			return fmt.Errorf("storage: wal write: %w", err)
		}
	} else if cp != nil && cp.Crashed() {
		return fmt.Errorf("storage: wal sync: %w", ErrCrashed)
	}
	if err := cp.sync(w.f); err != nil {
		return fmt.Errorf("storage: wal sync: %w", err)
	}
	return nil
}

// Records re-scans the durable file and returns the valid record
// prefix; tailDamaged reports a torn or corrupt tail: the view of the
// log recovery took when the log was opened.
func (w *WAL) Records() (recs []WALRecord, tailDamaged bool, err error) {
	scan, err := scanWALFile(w.path)
	return scan.recs, scan.tailDamaged, err
}

// Reset recycles the log after a checkpoint has made every logged
// effect durable in the page file: with an archive attached the live
// records are first sealed into it (nothing is reset if the seal fails
// — the log keeps its records and the archive keeps its chain); without
// one they are discarded. The file keeps its length and frees no
// blocks: Reset writes and fsyncs a start frame carrying the next LSN
// as the watermark, followed by an end frame, at offset 0, and the
// next record overwrites that end frame. LSN and transaction counters
// keep counting (LSNs stay monotonic for the life of the database), so
// every record left behind is stale: below the watermark.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inFlush { // a flush in progress writes at the old offsets
		w.flushing.Wait()
	}
	if w.cp != nil && w.cp.Crashed() {
		return fmt.Errorf("storage: wal reset: %w", ErrCrashed)
	}
	if w.arch != nil {
		live := make([]byte, w.bufStart)
		if _, err := w.f.ReadAt(live, 0); err != nil {
			return fmt.Errorf("storage: wal archive: %w", err)
		}
		recs, validLen, _ := scanWALBytes(live)
		if len(recs) > 0 {
			if w.cp != nil {
				w.arch.SetCrashpoint(w.cp)
			}
			if _, err := w.arch.seal(live[:validLen], recs); err != nil {
				return fmt.Errorf("storage: wal archive: %w", err)
			}
		}
	}
	frames := append(appendWALRecord(nil, WALRecord{LSN: w.nextLSN, Kind: RecStart}), walEnd[:]...)
	if err := w.cp.writeAt(w.f, frames, 0); err != nil {
		return fmt.Errorf("storage: wal reset: %w", err)
	}
	// The file now reads as recycled: later records go behind the start
	// frame even if this fsync fails.
	w.buf, w.bufStart = nil, int64(len(frames)-len(walEnd))
	w.syncedLSN = w.appendedLSN
	if err := w.cp.sync(w.f); err != nil {
		return fmt.Errorf("storage: wal reset: %w", err)
	}
	w.stats.Truncations++
	telWALTruncations.Inc()
	return nil
}

// Close makes every appended record durable, then closes the log file.
// Without the final sync, records buffered after the last group commit
// would silently vanish on a clean shutdown; both the sync and the
// close error are surfaced, joined.
func (w *WAL) Close() error {
	w.mu.Lock()
	target := w.appendedLSN
	crashed := w.cp != nil && w.cp.Crashed()
	w.mu.Unlock()
	var serr error
	if !crashed { // a simulated-dead process must not flush its tail
		serr = w.Sync(target)
	}
	cerr := w.f.Close()
	if cerr != nil {
		cerr = fmt.Errorf("storage: wal close: %w", cerr)
	}
	return errors.Join(serr, cerr)
}
