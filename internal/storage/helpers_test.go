package storage

import (
	"fmt"

	"asr/internal/fault"
)

// Helpers the package's tests use; no product code needs them.

// Seal scans raw (a WAL record stream) and seals its valid prefix as
// one segment. Trailing torn bytes are rejected — the caller seals only
// fully trusted log prefixes.
func (a *Archive) Seal(raw []byte) (SegmentInfo, error) {
	recs, validLen, damaged := scanWALBytes(raw)
	if damaged {
		return SegmentInfo{}, fmt.Errorf("storage: archive seal: raw stream has a damaged tail at byte %d", validLen)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sealLocked(raw[:validLen], recs)
}

// Segments lists the sealed segments sorted by first LSN. Files with
// the segment suffix whose header fails verification are returned in
// damaged (and counted) rather than aborting the listing — one rotted
// segment must not hide the healthy chain.
func (a *Archive) Segments() (segs []SegmentInfo, damaged []string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.segmentsLocked()
}

// Passes returns how many full passes have completed.
func (s *Scrubber) Passes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.passes
}

// EncodeWALRecord renders a record in the on-disk framing.
func EncodeWALRecord(rec WALRecord) []byte { return appendWALRecord(nil, rec) }

// RunOnce performs one full scrub pass over the file. It is safe to call
// concurrently with queries and maintenance on the same disk.
func (s *Scrubber) RunOnce() (*ScrubResult, error) {
	return s.runPass(nil)
}

// Snapshot returns a deep copy of every allocated page keyed by id —
// the ground truth a test compares against after a rollback.
func (d *Disk) Snapshot() map[PageID][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[PageID][]byte, len(d.pages))
	for id, p := range d.pages {
		out[id] = append([]byte(nil), p...)
	}
	return out
}

// Writes returns the number of write operations observed so far.
func (c *Crashpoint) Writes() int64 { return int64(c.s.Stats().Seen[fault.FileWrite]) }
