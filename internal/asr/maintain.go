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

// The Manager is the object base's one index observer (§6): a mutation
// is one step over every healthy index it touches. The step searches
// each index's row diff (rowDiff, search.go) against the stored rows as
// they were before the mutation, then applies all of them in one undo
// transaction with one WAL commit (applyDiffTxn), under the indexes'
// write locks taken in registry order: the stored relations change with
// the object they derive from, a crash leaves all of them at one point
// of the base's history, and readers see all of a step or none of it.
// A failed attempt writes nothing or rolls back to the pre-update pages
// and is retried; once the retries are spent, every index of the step
// is quarantined with the attempts' errors, since the base has moved on
// without it, until Repair lifts that. One writer at a time drives the
// callbacks.

// Transient maintenance faults are retried up to maintRetries times per
// update, sleeping maintBackoff, 2·maintBackoff, … between attempts.
const (
	maintRetries = 2
	maintBackoff = 200 * time.Microsecond
)

// AttrAssigned implements gom.Observer: the o → old edge goes and the
// o → new edge comes at every step of a path A_j = attr whose domain o
// belongs to.
func (m *Manager) AttrAssigned(o *gom.Object, attr string, old, new gom.Value) {
	m.maintain(nil, func(path *gom.PathExpression) (changes []edgeChange) {
		for j := 1; j <= path.Len(); j++ {
			if step := path.Step(j); step.Attr == attr && o.Type().IsSubtypeOf(step.Domain) {
				col, u := path.ObjectColumn(j-1), gom.Value(gom.Ref(o.ID()))
				changes = append(changes, edgeChange{col, u, old, false}, edgeChange{col, u, new, true})
			}
		}
		return changes
	})
}

// SetInserted implements gom.Observer: the paper's characteristic update
// operation ins_i (§6).
func (m *Manager) SetInserted(set *gom.Object, elem gom.Value) {
	m.setElementChanged(set, elem, true)
}

// SetRemoved implements gom.Observer.
func (m *Manager) SetRemoved(set *gom.Object, elem gom.Value) {
	m.setElementChanged(set, elem, false)
}

func (m *Manager) setElementChanged(set *gom.Object, elem gom.Value, add bool) {
	if add && set.Type().Kind() == gom.ListType {
		if elems := set.AppendElements(nil); slices.ContainsFunc(elems[:len(elems)-1], elem.Equal) {
			return // the list held elem already: appending it again adds no edge
		}
	}
	m.maintain(nil, func(path *gom.PathExpression) (changes []edgeChange) {
		for j := 1; j <= path.Len(); j++ {
			if step := path.Step(j); step.IsSetOccurrence() && step.Set == set.Type() {
				changes = append(changes, edgeChange{path.ObjectColumn(j-1) + 1, gom.Ref(set.ID()), elem, add})
			}
		}
		return changes
	})
}

// ObjectDeleted implements gom.Observer: every edge at the deleted
// object disappears, in each path with a column of its type; the search
// finds them.
func (m *Manager) ObjectDeleted(o *gom.Object) { m.maintain(o, nil) }

// maintStep is one index's share of a step: the edges the mutation
// moves in its path and, once searched, the logical rows that go and
// come.
type maintStep struct {
	ix            *Index
	changes       []edgeChange
	removes, adds []relation.Tuple
}

// maintain runs one step: the mutation's edge changes per path (edges),
// or the deletion of dead, through every healthy index they touch.
func (m *Manager) maintain(dead *gom.Object, edges func(*gom.PathExpression) []edgeChange) {
	m.mu.RLock()
	var buf [4]maintStep // most mutations touch few indexes
	steps := buf[:0]
	for _, e := range m.entries {
		var changes []edgeChange
		if edges != nil {
			changes = edges(e.ix.path)
		}
		touched := len(changes) > 0 || dead != nil && slices.ContainsFunc(e.ix.path.ColumnTypes(), dead.Type().IsSubtypeOf)
		if touched && !e.ix.Quarantined() {
			steps = append(steps, maintStep{ix: e.ix, changes: changes})
		}
	}
	m.mu.RUnlock()
	live := steps[:0]
	for _, st := range steps {
		st.ix.mu.Lock()
		if st.ix.parts != nil {
			live = append(live, st)
		} else {
			st.ix.mu.Unlock() // dropped since the snapshot
		}
	}
	steps = live
	defer func() {
		for _, st := range steps {
			st.ix.mu.Unlock()
		}
	}()
	if len(steps) == 0 {
		return
	}

	var attempts []error
	for attempt := 0; ; attempt++ {
		var err error
		for i := range steps {
			st := &steps[i]
			if st.removes, st.adds, err = st.ix.rowDiff(st.changes, dead); err != nil {
				break // the searches wrote nothing
			}
		}
		if err == nil {
			if err = m.applyDiffTxn(steps); err == nil {
				return
			}
		}
		for _, st := range steps {
			st.ix.nRollbacks.Add(1)
		}
		telMaintRollbacks.Inc()
		attempts = append(attempts, fmt.Errorf("attempt %d: %w", attempt+1, err))
		if attempt >= maintRetries {
			break
		}
		time.Sleep(maintBackoff << uint(attempt))
		for _, st := range steps {
			st.ix.nRetries.Add(1)
		}
		telMaintRetries.Inc()
	}
	err := errors.Join(attempts...)
	for _, st := range steps {
		st.ix.quarantine(fmt.Errorf("asr: index on %s: maintenance failed after %d attempt(s), index quarantined: %w",
			st.ix.path, len(attempts), err))
	}
}

// partNet is one placed partition's net change within a step.
type partNet struct {
	p    *Partition
	rows []netRow
}

// applyDiffTxn applies a step's row diffs atomically, as each
// partition's net change (§6's aup): an index's removed and added rows
// are projected onto the partition's window and summed, so each row
// whose count moves is adjusted once, by its net delta, and a partition
// the step does not reach is never marked or locked. A partition shared
// by two indexes (§5.4) takes both net changes in the one transaction,
// and a step that moves nothing opens none. Rows and counts live only in
// B⁺-tree pages, so the storage UndoTxn is the whole rollback, beside
// each tree's root/height/count, marked per partition on first touch;
// a failure restores both under the touched partitions' write locks, so
// readers of shared partitions never observe a torn state.
func (m *Manager) applyDiffTxn(steps []maintStep) (err error) {
	n := 0
	for _, st := range steps {
		n += len(st.ix.parts)
	}
	nets := make([]partNet, 0, n)
	for _, st := range steps {
		for _, pp := range st.ix.parts {
			rows, err := netDiff(pp, st.removes, st.adds)
			if err != nil {
				return err
			}
			if len(rows) > 0 {
				nets = append(nets, partNet{pp.Part, rows})
			}
		}
	}
	if len(nets) == 0 {
		return nil
	}
	txn, err := m.pool.BeginUndo()
	if err != nil {
		return err
	}
	marks := map[*Partition]treeMarks{}
	var order []*Partition // marks in first-touch order

apply:
	for _, pn := range nets {
		if _, ok := marks[pn.p]; !ok {
			marks[pn.p] = pn.p.marks()
			order = append(order, pn.p)
		}
		for _, r := range pn.rows {
			if err = pn.p.adjust(r.row, r.delta); err != nil {
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
