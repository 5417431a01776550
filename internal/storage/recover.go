package storage

import (
	"errors"
	"fmt"
)

// RecoveryInfo summarizes one Recover run.
type RecoveryInfo struct {
	CommittedTxns    int      // transactions with a durable commit marker
	DiscardedTxns    int      // transactions whose commit never became durable
	RedonePages      int      // page images re-applied to the data file
	QuarantinedPages []PageID // pages still failing checksum after redo
	WALTailDamaged   bool     // log ended in a torn or corrupt record
}

// String renders the operator's recovery line, shared by gomd's startup
// log and gomshell's \open.
func (r *RecoveryInfo) String() string {
	s := fmt.Sprintf("recovery: %d txns committed, %d discarded, %d pages redone",
		r.CommittedTxns, r.DiscardedTxns, r.RedonePages)
	if r.WALTailDamaged {
		s += "; WAL tail was torn, incomplete transactions discarded"
	}
	if n := len(r.QuarantinedPages); n > 0 {
		s += fmt.Sprintf("; WARNING: %d pages still corrupt after redo, affected indexes are quarantined (run Repair)", n)
	}
	return s
}

// Recover opens the page file at path and its WAL (path+".wal") and
// brings the pair to a consistent committed state — ARIES-lite, redo
// only, which suffices because the buffer pool is no-steal under a WAL
// (uncommitted dirty pages never reach the data file):
//
//  1. Scan the log's valid prefix — once, the scan OpenWAL seats the
//     counters from (a torn tail marks the crash point; everything
//     before it is checksummed and trusted).
//  2. Collect the transactions with a commit marker; images of any
//     other transaction are discarded.
//  3. Redo: for each committed page image (last one per page wins),
//     rewrite the stored page when its header LSN is older than the
//     image — or when the stored page fails its checksum, which is how
//     a torn data-page write heals from the log.
//  4. Quarantine: pages still failing checksum after redo (corrupt and
//     never covered by a committed image) are reported for the caller
//     to route to Index.Repair.
//  5. Checkpoint the result: superblock sync, LSN counters seated
//     above everything seen, then the log recycled (WAL.Reset) with
//     that LSN as its watermark.
//
// The returned FileDisk and WAL are ready for use: attach them to a
// BufferPool with AttachWAL.
func Recover(path string) (*FileDisk, *WAL, *RecoveryInfo, error) {
	return RecoverArchived(path, nil)
}

// RecoverArchived is Recover with a WAL archive attached before the
// final log reset, so the records the crash left behind are sealed into
// the archive chain instead of discarded — without this, a restart
// would punch a hole in point-in-time recovery's history. The archive
// stays attached on the returned WAL: every later checkpoint seals too.
func RecoverArchived(path string, arch *Archive) (_ *FileDisk, _ *WAL, _ *RecoveryInfo, err error) {
	fd, err := OpenFileDisk(path, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	w, scan, err := openWAL(path + ".wal")
	if err != nil {
		fd.Close()
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			fd.Close()
			w.Close()
		}
	}()
	if arch != nil {
		w.SetArchive(arch)
	}
	// The archive is not folded in: everything it holds was checkpointed
	// into the page file before it was sealed.
	images, _ := foldImageLog(nil, scan.recs, 0) // no archive, no replay error
	info := &RecoveryInfo{
		CommittedTxns:  images.committed,
		DiscardedTxns:  images.discarded,
		WALTailDamaged: scan.tailDamaged,
	}

	// Redo when the stored page is older than the log (or corrupt). A
	// stored page may also be newer than the superblock's watermark.
	maxLSN := fd.MaxLSN()
	info.RedonePages, _, err = images.apply(fd, func(stored, image uint64) bool {
		maxLSN = max(maxLSN, stored)
		return stored < image
	})
	if err != nil {
		return nil, nil, nil, err
	}
	telRecoveryRedone.Add(uint64(info.RedonePages))
	maxLSN = max(maxLSN, fd.MaxLSN())

	// Sweep the whole file: any page still failing its checksum after
	// redo — torn outside the log's coverage, or rotted while the
	// database was closed — is quarantined for logical repair.
	for id := PageID(1); int(id) <= fd.NumPages(); id++ {
		if _, perr := fd.PageLSN(id); errors.Is(perr, ErrCorruptPage) {
			info.QuarantinedPages = append(info.QuarantinedPages, id)
			telRecoveryQuarantined.Inc()
		}
	}
	telRecoveryCommitted.Add(uint64(info.CommittedTxns))
	telRecoveryDiscarded.Add(uint64(info.DiscardedTxns))

	if err := fd.Sync(); err != nil {
		return nil, nil, nil, err
	}
	if arch != nil {
		// An uncommitted tail sealed by an earlier recovery never reached
		// the page file; its LSNs are taken all the same.
		archived, err := arch.MaxLSN()
		if err != nil {
			return nil, nil, nil, err
		}
		maxLSN = max(maxLSN, archived)
	}
	w.SetNextLSN(maxLSN + 1)
	if err := w.Reset(); err != nil {
		return nil, nil, nil, err
	}
	return fd, w, info, nil
}
