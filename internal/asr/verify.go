package asr

import (
	"fmt"
	"sort"
)

// PartitionDrift describes how one stored partition differs from the
// freshly recomputed logical extension: rows the partition is missing,
// rows it holds that should not exist, and rows whose reference count
// is wrong.
type PartitionDrift struct {
	Name    string
	Missing int // rows in the recomputed extension but not stored
	Extra   int // stored rows absent from the recomputed extension
	Wrong   int // rows present on both sides with differing refcounts
}

// Drifted reports whether the partition deviates at all.
func (d PartitionDrift) Drifted() bool { return d.Missing+d.Extra+d.Wrong > 0 }

// VerifyReport is the result of Index.Verify (and, after a Repair, the
// record of what was rebuilt).
type VerifyReport struct {
	// Partitions holds one entry per owned partition, in column order.
	Partitions []PartitionDrift
	// SkippedShared names partitions placed in more than one index
	// (§5.4 physical sharing): their reference counts legitimately
	// include foreign rows, so a single index cannot verify them.
	SkippedShared []string
}

// Clean reports whether no verified partition drifted.
func (r VerifyReport) Clean() bool {
	for _, d := range r.Partitions {
		if d.Drifted() {
			return false
		}
	}
	return true
}

// String summarizes the report.
func (r VerifyReport) String() string {
	if r.Clean() && len(r.SkippedShared) == 0 {
		return "verify: clean"
	}
	s := "verify:"
	for _, d := range r.Partitions {
		if d.Drifted() {
			s += fmt.Sprintf(" %s[missing=%d extra=%d wrong=%d]", d.Name, d.Missing, d.Extra, d.Wrong)
		}
	}
	if r.Clean() {
		s += " clean"
	}
	for _, n := range r.SkippedShared {
		s += fmt.Sprintf(" (skipped shared %s)", n)
	}
	return s
}

// Verify recomputes the logical extension from the live object base and
// diffs it against the rows and reference counts every partition's
// trees actually store (Partition.drift). It works while the index is
// quarantined — that is its main use: deciding how much drift an
// unrecoverable maintenance failure left behind before calling Repair. Partitions shared with another index are skipped (see
// VerifyReport.SkippedShared). Safe for concurrent use with readers;
// must not run concurrently with maintenance (single-writer rule).
func (ix *Index) Verify() (VerifyReport, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.parts) == 0 {
		return VerifyReport{}, fmt.Errorf("asr: index on %s: pages released", ix.path)
	}
	rows, err := extensionRows(ix.ob, ix.path, ix.ext)
	if err != nil {
		return VerifyReport{}, err
	}
	_, want := projectRows(rows, ix.dec)
	var rep VerifyReport
	for i, pp := range ix.parts {
		if pp.Part.Owners() > 1 {
			rep.SkippedShared = append(rep.SkippedShared, pp.Part.Name())
			continue
		}
		// The diff reads the stored trees page by page, so on-disk damage
		// (a page failing its checksum, a mangled node) surfaces here as
		// an error. It quarantines the index — queries route around it
		// (degraded plans) until Repair rebuilds the partition.
		d, perr := pp.Part.drift(want[i])
		if perr != nil {
			perr = fmt.Errorf("asr: index on %s: partition %s failed physical verification: %w",
				ix.path, pp.Part.Name(), perr)
			ix.quarantine(perr)
			return rep, perr
		}
		rep.Partitions = append(rep.Partitions, d)
	}
	sort.Strings(rep.SkippedShared)
	return rep, nil
}

// Repair resynchronizes the index with the live object base and lifts
// its quarantine: the extension is recomputed from scratch, every drifted
// partition is bulk-reloaded from the recomputed extension (partitions
// that still match are left untouched, so an interrupted Repair
// converges when re-run), and the quarantine flag is cleared. The
// returned report records what was rebuilt.
//
// Repair fails — leaving the quarantine in place — when the device is
// still faulting (the bulk loads run under an undo transaction, so a
// failed reload leaves the old trees intact) or when a drifted
// partition is physically shared with another index: shared partitions
// hold foreign rows a single index cannot recompute, so both sharing
// indexes must be dropped and rebuilt instead.
//
// Must be driven by the maintenance writer (or with maintenance
// quiesced); concurrent readers are safe throughout.
func (ix *Index) Repair() (VerifyReport, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.parts) == 0 {
		return VerifyReport{}, fmt.Errorf("asr: index on %s: pages released", ix.path)
	}
	logical, err := extensionRows(ix.ob, ix.path, ix.ext)
	if err != nil {
		return VerifyReport{}, err
	}
	rows, want := projectRows(logical, ix.dec)
	var rep VerifyReport
	for i, pp := range ix.parts {
		// A physically damaged partition (the diff could not read its
		// trees through) is rebuilt like a drifted one. reloadBulk
		// tolerates corrupt old pages when freeing them, so the rebuild
		// heals checksum failures.
		d, perr := pp.Part.drift(want[i])
		damaged := perr != nil
		if (d.Drifted() || damaged) && pp.Part.Owners() > 1 {
			return rep, fmt.Errorf("asr: repair of index on %s: partition %s is shared and drifted; drop and rebuild the sharing indexes",
				ix.path, pp.Part.Name())
		}
		if d.Drifted() || damaged {
			if err := pp.Part.reloadBulk(ix.pool, rows[i], want[i]); err != nil {
				return rep, fmt.Errorf("asr: repair of index on %s: %w", ix.path, err)
			}
		}
		rep.Partitions = append(rep.Partitions, d)
	}
	ix.clearQuarantine()
	return rep, nil
}
