package storage

import (
	"errors"
	"fmt"
	"sort"
)

// imageLog is the redo view of a WAL history: for every page, the
// newest image whose transaction committed at or below a target LSN.
// Crash recovery, point-in-time restore and the scrubber's heal all want
// exactly this and differ only in what they do with each image, so the
// "which images count" decision lives here once.
type imageLog struct {
	latest    map[PageID]WALRecord
	committed int // transactions whose commit marker was folded in
	discarded int // transactions that logged images but never committed (at or below the target)
}

// foldImageLog folds a history into an imageLog in one pass. The history
// is arch's sealed segments (nil: none) followed by live, the live log's
// records — LSN order. Records above target (0: unbounded) do not exist
// as far as the result is concerned, so a transaction whose commit
// marker lies past the target is discarded. A transaction's images are
// buffered until its marker arrives; a marker never commits images
// logged after it.
//
// An archive replay error (ErrArchiveCorrupt, ErrArchiveGap, IO) does
// not stop the fold: the log returned beside it holds everything that
// replayed before the damage plus the live records, for the caller to
// fail on or tolerate.
func foldImageLog(arch *Archive, live []WALRecord, target uint64) (*imageLog, error) {
	l := &imageLog{latest: map[PageID]WALRecord{}}
	pending := map[uint64][]WALRecord{} // txn → images awaiting its commit marker
	add := func(r WALRecord) {
		switch {
		case target > 0 && r.LSN > target: // past the target: not part of this history
		case r.Kind == RecPageImage:
			pending[r.Txn] = append(pending[r.Txn], r)
		case r.Kind == RecCommit:
			for _, img := range pending[r.Txn] {
				if img.LSN >= l.latest[img.Page].LSN {
					l.latest[img.Page] = img
				}
			}
			delete(pending, r.Txn)
			l.committed++
		}
	}
	var err error
	if arch != nil {
		err = arch.Replay(0, target, func(r WALRecord) error { add(r); return nil })
	}
	for _, r := range live {
		add(r)
	}
	l.discarded = len(pending)
	return l, err
}

// apply rewrites pages of fd from the log, in page order: a page whose
// stored copy fails its checksum always, a readable one when
// stale(stored LSN, image LSN) says so — the caller's write policy. It
// returns how many pages it wrote and how many of those were corrupt.
func (l *imageLog) apply(fd *FileDisk, stale func(stored, image uint64) bool) (written, healed int, err error) {
	ids := make([]PageID, 0, len(l.latest))
	for id := range l.latest {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec := l.latest[id]
		if len(rec.Data) != fd.PageSize() {
			return written, healed, fmt.Errorf("storage: %s: logged image for %v is %d bytes, page size %d",
				fd.Path(), id, len(rec.Data), fd.PageSize())
		}
		fd.ensureAllocated(id)
		stored, perr := fd.PageLSN(id)
		corrupt := errors.Is(perr, ErrCorruptPage)
		if perr != nil && !corrupt {
			return written, healed, perr
		}
		if !corrupt && !stale(stored, rec.LSN) {
			continue
		}
		if err := fd.WriteLSN(id, rec.Data, rec.LSN); err != nil {
			return written, healed, err
		}
		written++
		if corrupt {
			healed++
		}
	}
	return written, healed, nil
}
