package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// WAL segment archiving: instead of discarding log history at every
// checkpoint (WAL.Reset), the trusted prefix of the log is sealed into
// an archive directory as an immutable, checksummed segment file. The
// archive is the replay source for point-in-time recovery (Restore) and
// for healing torn pages in an online backup — history beyond the last
// checkpoint stays recoverable for as long as the retention policy
// keeps it (Prune, tied to the backup chain).
//
// Segment file layout (little-endian):
//
//	magic   u64  "ASRWARC1"
//	version u32
//	records u32  record count in the payload
//	first   u64  LSN of the first record
//	last    u64  LSN of the last record
//	paylen  u64  payload length in bytes
//	paycrc  u32  CRC32C over the payload
//	hdrcrc  u32  CRC32C over the 44 header bytes above
//	payload      raw WAL record stream (the on-disk WAL framing,
//	             each record individually checksummed as well)
//
// Segments are written with AtomicWriteFile, so a crash mid-seal leaves
// at worst an ignored *.tmp file — never a half segment under the sealed
// name.
const (
	segMagic      = 0x4153525741524331 // "ASRWARC1"
	segVersion    = 1
	segHeaderSize = 48

	// SegmentSuffix is the file suffix of sealed archive segments.
	SegmentSuffix = ".walseg"
)

// Errors the archive reports. ErrArchiveCorrupt wraps every checksum or
// framing failure inside a sealed segment; ErrArchiveGap means the
// archived LSN chain has a hole before the requested replay target
// (a segment was lost or pruned too aggressively).
var (
	ErrArchiveCorrupt = errors.New("archive: corrupt segment")
	ErrArchiveGap     = errors.New("archive: LSN chain gap")
)

// SegmentInfo describes one sealed segment.
type SegmentInfo struct {
	Path    string
	First   uint64 // LSN of the first record
	Last    uint64 // LSN of the last record
	Records int
	Bytes   int64 // payload bytes
}

// Archive is a directory of sealed WAL segments. It is safe for
// concurrent use; sealing, listing, replaying and pruning serialize on
// one mutex (all are cold-path operations).
type Archive struct {
	mu  sync.Mutex
	dir string
	cp  *Crashpoint
}

// OpenArchive opens (creating if needed) an archive directory.
func OpenArchive(dir string) (*Archive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open archive %s: %w", dir, err)
	}
	return &Archive{dir: dir}, nil
}

// SetCrashpoint installs (or clears) the crashpoint gating segment
// writes, so crash tests can tear a seal mid-write.
func (a *Archive) SetCrashpoint(cp *Crashpoint) {
	a.mu.Lock()
	a.cp = cp
	a.mu.Unlock()
}

// segName renders the canonical segment file name for an LSN range.
func segName(first, last uint64) string {
	return fmt.Sprintf("seg-%016x-%016x%s", first, last, SegmentSuffix)
}

// encodeSegHeader renders the 48-byte segment header.
func encodeSegHeader(records int, first, last uint64, payload []byte) []byte {
	h := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint64(h[0:], segMagic)
	binary.LittleEndian.PutUint32(h[8:], segVersion)
	binary.LittleEndian.PutUint32(h[12:], uint32(records))
	binary.LittleEndian.PutUint64(h[16:], first)
	binary.LittleEndian.PutUint64(h[24:], last)
	binary.LittleEndian.PutUint64(h[32:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(h[40:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(h[44:], crc32.Checksum(h[:44], castagnoli))
	return h
}

// readSegHeader parses and verifies a segment header.
func readSegHeader(b []byte) (records int, first, last, paylen uint64, paycrc uint32, err error) {
	if len(b) < segHeaderSize {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: short header", ErrArchiveCorrupt)
	}
	if binary.LittleEndian.Uint64(b[0:]) != segMagic {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: bad magic", ErrArchiveCorrupt)
	}
	if crc32.Checksum(b[:44], castagnoli) != binary.LittleEndian.Uint32(b[44:]) {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: header checksum mismatch", ErrArchiveCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != segVersion {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: segment version %d", ErrArchiveCorrupt, v)
	}
	return int(binary.LittleEndian.Uint32(b[12:])),
		binary.LittleEndian.Uint64(b[16:]),
		binary.LittleEndian.Uint64(b[24:]),
		binary.LittleEndian.Uint64(b[32:]),
		binary.LittleEndian.Uint32(b[40:]), nil
}

// seal writes one segment covering recs (whose raw framing is payload).
// Idempotent: re-sealing the same range overwrites the identical file.
// Must be called with a.mu held.
func (a *Archive) sealLocked(payload []byte, recs []WALRecord) (SegmentInfo, error) {
	if len(recs) == 0 {
		return SegmentInfo{}, errors.New("storage: archive seal: no records")
	}
	first, last := recs[0].LSN, recs[len(recs)-1].LSN
	final := filepath.Join(a.dir, segName(first, last))
	data := append(encodeSegHeader(len(recs), first, last, payload), payload...)
	if err := AtomicWriteFile(final, data, a.cp, nil); err != nil {
		return SegmentInfo{}, fmt.Errorf("storage: archive seal: %w", err)
	}
	telArchiveSealed.Inc()
	telArchiveBytes.Add(uint64(len(payload)))
	return SegmentInfo{Path: final, First: first, Last: last, Records: len(recs), Bytes: int64(len(payload))}, nil
}

// seal is sealLocked behind the archive mutex.
func (a *Archive) seal(payload []byte, recs []WALRecord) (SegmentInfo, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sealLocked(payload, recs)
}

func (a *Archive) segmentsLocked() (segs []SegmentInfo, damaged []string, err error) {
	ents, err := os.ReadDir(a.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: archive list: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), SegmentSuffix) {
			continue
		}
		path := filepath.Join(a.dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("storage: archive list: %w", err)
		}
		h := make([]byte, segHeaderSize)
		n, _ := f.Read(h)
		st, serr := f.Stat()
		f.Close()
		records, first, last, paylen, _, herr := readSegHeader(h[:n])
		if herr != nil || serr != nil || st.Size() != int64(segHeaderSize)+int64(paylen) {
			telArchiveCorrupt.Inc()
			damaged = append(damaged, path)
			continue
		}
		segs = append(segs, SegmentInfo{Path: path, First: first, Last: last, Records: records, Bytes: int64(paylen)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].First < segs[j].First })
	return segs, damaged, nil
}

// MaxLSN returns the highest LSN the archive holds (0 when empty).
func (a *Archive) MaxLSN() (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	segs, _, err := a.segmentsLocked()
	if err != nil {
		return 0, err
	}
	var high uint64
	for _, s := range segs {
		high = max(high, s.Last)
	}
	return high, nil
}

// readSegment loads and verifies one segment's records.
func readSegment(path string) ([]WALRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: archive read: %w", err)
	}
	records, _, _, paylen, paycrc, err := readSegHeader(raw)
	if err != nil {
		return nil, fmt.Errorf("storage: archive read %s: %w", path, err)
	}
	if int64(len(raw)) != int64(segHeaderSize)+int64(paylen) {
		return nil, fmt.Errorf("storage: archive read %s: %w: size %d, header says %d",
			path, ErrArchiveCorrupt, len(raw), segHeaderSize+int(paylen))
	}
	payload := raw[segHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != paycrc {
		return nil, fmt.Errorf("storage: archive read %s: %w: payload checksum mismatch", path, ErrArchiveCorrupt)
	}
	recs, _, dmg := scanWALBytes(payload)
	if dmg || len(recs) != records {
		return nil, fmt.Errorf("storage: archive read %s: %w: %d records decoded, header says %d",
			path, ErrArchiveCorrupt, len(recs), records)
	}
	return recs, nil
}

// Replay streams every archived record with from ≤ LSN ≤ to (to = 0
// means no upper bound) to fn, in LSN order. Corrupt segments inside
// the requested range are an error (wrapping ErrArchiveCorrupt, counted
// in archive_corrupt_segments_total); a hole in the LSN chain before
// the range is satisfied is ErrArchiveGap. Segments entirely outside
// the range are not even read.
func (a *Archive) Replay(from, to uint64, fn func(WALRecord) error) error {
	a.mu.Lock()
	segs, damaged, err := a.segmentsLocked()
	a.mu.Unlock()
	if err != nil {
		return err
	}
	// A damaged header inside the requested range is a chain break.
	var prev uint64
	for _, s := range segs {
		if (to > 0 && s.First > to) || s.Last < from {
			if s.Last < from {
				prev = s.Last
			}
			continue
		}
		if prev > 0 && s.First > prev+1 {
			return fmt.Errorf("storage: archive replay: %w: %d..%d missing", ErrArchiveGap, prev+1, s.First-1)
		}
		recs, err := readSegment(s.Path)
		if err != nil {
			if errors.Is(err, ErrArchiveCorrupt) {
				telArchiveCorrupt.Inc()
			}
			return err
		}
		for _, r := range recs {
			if r.LSN < from || (to > 0 && r.LSN > to) {
				continue
			}
			if err := fn(r); err != nil {
				return err
			}
		}
		prev = s.Last
	}
	if len(damaged) > 0 && (to == 0 || prev < to) {
		// The chain may continue inside a segment we cannot read.
		return fmt.Errorf("storage: archive replay: %w: %d damaged segment(s): %s",
			ErrArchiveCorrupt, len(damaged), strings.Join(damaged, ", "))
	}
	return nil
}

// Prune deletes segments whose entire range is below keepFrom — the
// retention policy. Callers tie keepFrom to the backup chain: pruning
// to the latest backup's StartLSN keeps exactly the history needed to
// restore from that backup to any later point.
func (a *Archive) Prune(keepFrom uint64) (removed int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	segs, _, err := a.segmentsLocked()
	if err != nil {
		return 0, err
	}
	for _, s := range segs {
		if s.Last >= keepFrom {
			continue
		}
		if err := os.Remove(s.Path); err != nil {
			return removed, fmt.Errorf("storage: archive prune: %w", err)
		}
		removed++
		telArchivePruned.Inc()
	}
	if removed > 0 {
		if err := syncDir(a.dir); err != nil {
			return removed, fmt.Errorf("storage: archive prune: %w", err)
		}
	}
	return removed, nil
}
