package asr

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"asr/internal/gom"
	"asr/internal/relation"
)

// Maintainer keeps an Index consistent under object-base updates (§6).
// Register it as an observer on the object base:
//
//	m := asr.NewMaintainer(ix)
//	ob.AddObserver(m)
//
// Maintenance is incremental: an update is translated into the
// path-graph edges it adds or removes, §6's search finds the logical
// rows they change (search.go), and the difference is netted per
// partition, so only the projected rows whose reference count moves are
// written. An update that cannot be applied quarantines the index, and
// Err reports why — the object base update itself has already happened,
// matching the paper's model where the object update precedes index
// maintenance. The quarantine reason on the Index is the only record of
// the failure: whatever lifts the quarantine (Repair, Rematerialize) is
// all that is needed for maintenance to resume with the next update.
//
// Each update's row diff is applied transactionally: a storage-level
// undo transaction makes a partial failure — a device write fault
// halfway through the partitions — roll back to the exact pre-update
// pages; a fault in the search fails the attempt before anything is
// written. Transient faults are retried with exponential backoff
// (maintRetries, maintBackoff); when the retries are exhausted the
// index is quarantined (queries fail with ErrQuarantined and the
// Manager routes around it) until Repair.
//
// A Maintainer's callbacks must be driven by a single writer goroutine
// at a time (the object base serializes mutations, so this holds
// whenever updates flow through one ObjectBase). Err is safe to call
// from any goroutine; each applied change takes the index's write lock,
// so concurrent index readers see atomic transitions.
type Maintainer struct {
	ix *Index
}

// Transient maintenance faults are retried up to maintRetries times per
// update, sleeping maintBackoff, 2·maintBackoff, … between attempts.
const (
	maintRetries = 2
	maintBackoff = 200 * time.Microsecond
)

// NewMaintainer creates a maintainer for the index.
func NewMaintainer(ix *Index) *Maintainer {
	return &Maintainer{ix: ix}
}

// Err returns why the index is quarantined — the maintenance failure,
// or whatever else took it out of service (damage found at open or by
// Verify) — or nil while it is being maintained. Safe for concurrent
// use.
func (m *Maintainer) Err() error { return m.ix.QuarantineReason() }

// AttrAssigned implements gom.Observer: the o → old edge goes and the
// o → new edge comes at every step of the path A_j = attr whose domain
// o belongs to.
func (m *Maintainer) AttrAssigned(o *gom.Object, attr string, old, new gom.Value) {
	path := m.ix.path
	u := gom.Value(gom.Ref(o.ID()))
	var changes []edgeChange
	for j := 1; j <= path.Len(); j++ {
		if step := path.Step(j); step.Attr == attr && o.Type().IsSubtypeOf(step.Domain) {
			col := path.ObjectColumn(j - 1)
			changes = append(changes, edgeChange{col, u, old, false}, edgeChange{col, u, new, true})
		}
	}
	m.apply(changes, nil)
}

// SetInserted implements gom.Observer: the paper's characteristic update
// operation ins_i (§6).
func (m *Maintainer) SetInserted(set *gom.Object, elem gom.Value) {
	m.setElementChanged(set, elem, true)
}

// SetRemoved implements gom.Observer.
func (m *Maintainer) SetRemoved(set *gom.Object, elem gom.Value) {
	m.setElementChanged(set, elem, false)
}

func (m *Maintainer) setElementChanged(set *gom.Object, elem gom.Value, add bool) {
	if add && set.Type().Kind() == gom.ListType {
		if elems := set.AppendElements(nil); slices.ContainsFunc(elems[:len(elems)-1], elem.Equal) {
			return // the list held elem already: appending it again adds no edge
		}
	}
	path := m.ix.path
	s := gom.Value(gom.Ref(set.ID()))
	var changes []edgeChange
	for j := 1; j <= path.Len(); j++ {
		if step := path.Step(j); step.IsSetOccurrence() && step.Set == set.Type() {
			changes = append(changes, edgeChange{path.ObjectColumn(j-1) + 1, s, elem, add})
		}
	}
	m.apply(changes, nil)
}

// ObjectDeleted implements gom.Observer: every edge at the deleted
// object disappears; the search finds them.
func (m *Maintainer) ObjectDeleted(o *gom.Object) { m.apply(nil, o) }

// apply runs one update — its edge changes, or the deletion of dead —
// through the index: search the rows it removes and adds (rowDiff) and
// apply the difference to all partitions transactionally, under the
// index's write lock, so concurrent queries see either the whole change
// or none of it.
//
// The search writes nothing, so it runs before the storage undo
// transaction of applyDiffTxn. A failed attempt — typically an injected
// or real device fault, in the search or a B⁺-tree page write-back — is
// rolled back and retried, search included, per the retry policy. If
// every attempt fails the index is quarantined with the attempts' errors
// as its reason: its stored rows match the pre-update object base, which
// no longer exists, so only Repair can bring it back. While the index is
// quarantined, updates are skipped: the search would read rows that no
// longer track the base as the state before each update.
func (m *Maintainer) apply(changes []edgeChange, dead *gom.Object) {
	ix := m.ix
	if ix.Quarantined() || (len(changes) == 0 && dead == nil) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var attempts []error
	for attempt := 0; ; attempt++ {
		removes, adds, err := ix.rowDiff(changes, dead)
		if err != nil {
			// The search wrote nothing: the attempt is rolled back as is.
			ix.nRollbacks.Add(1)
			telMaintRollbacks.Inc()
		} else {
			err = ix.applyDiffTxn(removes, adds)
		}
		if err == nil {
			return
		}
		attempts = append(attempts, fmt.Errorf("attempt %d: %w", attempt+1, err))
		if attempt >= maintRetries {
			break
		}
		time.Sleep(maintBackoff << uint(attempt))
		ix.nRetries.Add(1)
		telMaintRetries.Inc()
	}
	ix.quarantine(fmt.Errorf("asr: index on %s: maintenance failed after %d attempt(s), index quarantined: %w",
		ix.path, len(attempts), errors.Join(attempts...)))
}

// applyDiffTxn applies one update's logical row diff to every partition
// atomically, as each partition's net change (§6's aup): the removed
// and added rows are projected onto the partition's window and summed,
// so a projection both removed and re-added — the partitions an update
// does not reach — costs nothing, and each row whose count does move is
// adjusted once, by its net delta. A partition left with no net change
// is never marked or locked. Every row and count lives in B⁺-tree
// pages, so the storage UndoTxn capturing the page mutations is the
// whole rollback; the only state outside the pages is each tree's
// root/height/count, marked per partition on first touch. Any failure
// restores the pages and rewinds the marks under the involved
// partitions' write locks, so concurrent readers of shared partitions
// never observe a torn state.
func (ix *Index) applyDiffTxn(removes, adds []relation.Tuple) (err error) {
	nets := make([][]netRow, len(ix.parts))
	work := false
	for i, pp := range ix.parts {
		if nets[i], err = netDiff(pp, removes, adds); err != nil {
			return err
		}
		work = work || len(nets[i]) > 0
	}
	if !work {
		return nil
	}
	txn, err := ix.pool.BeginUndo()
	if err != nil {
		return err
	}
	marks := map[*Partition]treeMarks{}
	var order []*Partition // marks in first-touch order

apply:
	for i, pp := range ix.parts {
		if len(nets[i]) == 0 {
			continue
		}
		if _, ok := marks[pp.Part]; !ok {
			marks[pp.Part] = pp.Part.marks()
			order = append(order, pp.Part)
		}
		for _, r := range nets[i] {
			if err = pp.Part.adjust(r.row, r.delta); err != nil {
				break apply
			}
		}
	}
	if err == nil {
		// Commit logs the transaction's page images and commit marker to
		// the WAL (group commit) before finishing; a logging failure
		// leaves the transaction active and is handled exactly like an
		// apply-time fault — full rollback, then retry or quarantine.
		if err = txn.Commit(); err == nil {
			return nil
		}
	}

	// Roll back. Lock every touched partition first: the page restore
	// and the tree-mark rewind must be invisible to concurrent readers
	// (who lock the partition, not the index).
	ix.nRollbacks.Add(1)
	telMaintRollbacks.Inc()
	for _, p := range order {
		p.mu.Lock()
	}
	rbErr := txn.Rollback()
	for _, p := range order {
		marks[p].restoreLocked()
	}
	for i := len(order) - 1; i >= 0; i-- {
		order[i].mu.Unlock()
	}
	if rbErr != nil {
		return fmt.Errorf("asr: rollback after %w: %w", err, rbErr)
	}
	return err
}

// netRow is one projected row whose reference count an update moves.
type netRow struct {
	fk    []byte // forward-tree key, the order rows are applied in
	row   relation.Tuple
	delta int
}

// netDiff projects an update's removed and added logical rows onto pp's
// window and sums each projection's ±1. All-NULL projections (no path
// segment) and projections whose sum is zero drop out; the rest come
// back net removals first, each group in forward-key order.
func netDiff(pp PlacedPartition, removes, adds []relation.Tuple) ([]netRow, error) {
	var rows []netRow
	at := map[string]int{}
	tally := func(logical []relation.Tuple, d int) error {
		for _, row := range logical {
			proj := row[pp.Lo : pp.Hi+1]
			if proj.IsAllNull() {
				continue
			}
			fk, err := encodeTuple(proj, 0)
			if err != nil {
				return err
			}
			if i, ok := at[string(fk)]; ok {
				rows[i].delta += d
				continue
			}
			at[string(fk)] = len(rows)
			rows = append(rows, netRow{fk: fk, row: proj, delta: d})
		}
		return nil
	}
	if err := tally(removes, -1); err != nil {
		return nil, err
	}
	if err := tally(adds, +1); err != nil {
		return nil, err
	}
	moved := rows[:0]
	for _, r := range rows {
		if r.delta != 0 {
			moved = append(moved, r)
		}
	}
	sort.Slice(moved, func(i, j int) bool {
		if ri, rj := moved[i].delta < 0, moved[j].delta < 0; ri != rj {
			return ri
		}
		return bytes.Compare(moved[i].fk, moved[j].fk) < 0
	})
	return moved, nil
}
