package asr

import (
	"fmt"

	"asr/internal/relation"
)

// projectRows accumulates the reference-counted projections of the
// logical rows under dec — one (rows, refcnt) pair per partition, both
// keyed by Tuple.Key. It is the one statement of what a partition should
// hold: Build, Rematerialize and Repair bulk-load from it
// (NewPartitionBulk, reloadBulk), Verify and Repair diff the stored
// trees against it (Partition.drift).
func projectRows(rows []relation.Tuple, dec Decomposition) ([]map[string]relation.Tuple, []map[string]int) {
	outRows := make([]map[string]relation.Tuple, dec.NumPartitions())
	refcnt := make([]map[string]int, dec.NumPartitions())
	for p := range outRows {
		outRows[p] = map[string]relation.Tuple{}
		refcnt[p] = map[string]int{}
	}
	for _, row := range rows {
		for p := 0; p < dec.NumPartitions(); p++ {
			lo, hi := dec.Partition(p)
			proj := row[lo : hi+1]
			if proj.IsAllNull() {
				continue
			}
			k := proj.Key()
			if refcnt[p][k] == 0 {
				outRows[p][k] = proj.Clone()
			}
			refcnt[p][k]++
		}
	}
	return outRows, refcnt
}

// Rematerialize rebuilds the index's stored partitions from the live
// object base under a (possibly different) decomposition — the
// physical-design move of re-cutting an existing ASR, e.g. switching
// between binary and full decomposition after the workload shifted
// (§6.4), without dropping and re-creating the index. The new
// partitions are bulk-loaded bottom-up from the freshly recomputed
// extension; the old partitions' pages are reclaimed only after every
// new tree is in place, so a failed rematerialization leaves the index
// exactly as it was. A successful rematerialization also lifts any
// quarantine — the stored rows were just recomputed from scratch.
//
// Rematerialize refuses when a current partition is physically shared
// with another index (§5.4): reclaiming or re-cutting it would pull
// rows out from under the co-owner. Must be driven by the maintenance
// writer (or with maintenance quiesced); concurrent readers are safe
// throughout — they hold the index read lock, so they observe either
// the old or the new partitions, never a mix.
func (ix *Index) Rematerialize(dec Decomposition) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.parts) == 0 {
		return fmt.Errorf("asr: index on %s: pages released", ix.path)
	}
	m := ix.path.Arity() - 1
	if err := dec.Validate(m); err != nil {
		return err
	}
	for _, pp := range ix.parts {
		if pp.Part.Owners() > 1 {
			return fmt.Errorf("asr: rematerialize of index on %s: partition %s is shared; drop and rebuild the sharing indexes",
				ix.path, pp.Part.Name())
		}
	}
	logical, err := extensionRows(ix.ob, ix.path, ix.ext)
	if err != nil {
		return err
	}
	rows, refcnt := projectRows(logical, dec)

	// Build the replacement partitions first; only a complete set
	// displaces the old one.
	newParts := make([]PlacedPartition, 0, dec.NumPartitions())
	abort := func(err error) error {
		for _, pp := range newParts {
			pp.Part.release()
		}
		return fmt.Errorf("asr: rematerialize of index on %s: %w", ix.path, err)
	}
	for p := 0; p < dec.NumPartitions(); p++ {
		lo, hi := dec.Partition(p)
		part, err := NewPartitionBulk(ix.pool, fmt.Sprintf("E_%s^%d,%d", ix.ext, lo, hi), hi-lo+1, rows[p], refcnt[p])
		if err != nil {
			return abort(err)
		}
		part.acquire()
		newParts = append(newParts, PlacedPartition{Lo: lo, Hi: hi, Part: part})
	}
	for _, pp := range ix.parts {
		if err := pp.Part.release(); err != nil {
			// The new partitions are complete and correct; losing the
			// old pages is a leak, not corruption. Install the new set
			// and report the reclamation failure.
			ix.parts, ix.dec = newParts, dec
			ix.clearQuarantine()
			return fmt.Errorf("asr: rematerialize of index on %s: reclaiming old partition %s: %w",
				ix.path, pp.Part.Name(), err)
		}
	}
	ix.parts, ix.dec = newParts, dec
	ix.clearQuarantine()
	return nil
}

// Rematerialize re-cuts a managed index under a new decomposition (see
// Index.Rematerialize); maintenance resumes with the next update. Must
// be called with object-base mutation quiesced (the single-writer rule).
func (m *Manager) Rematerialize(ix *Index, dec Decomposition) error {
	if err := m.managed(ix); err != nil {
		return err
	}
	return ix.Rematerialize(dec)
}
