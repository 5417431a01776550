package asr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
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
// Maintenance is incremental: an update is translated into the set of
// path-graph edges it adds or removes; the logical rows passing through
// any endpoint of a changed edge are enumerated before and after the
// change, and the difference is netted per partition — only the
// projected rows whose reference count moves are written. An update
// that cannot be applied quarantines the index, and Err reports why —
// the object base update itself has already happened, matching the
// paper's model where the object update precedes index maintenance.
// The quarantine reason on the Index is the only record of the failure:
// whatever lifts the quarantine (Repair, Rematerialize) is all that is
// needed for maintenance to resume with the next update.
//
// Each update's row diff is applied transactionally: a storage-level
// undo transaction makes a partial failure — a device write fault
// halfway through the partitions — roll back to the exact pre-update
// pages, and the path graph is reversed to match. Transient faults
// are retried with exponential backoff per SetRetryPolicy; when the
// retries are exhausted the index is quarantined (queries fail with
// ErrQuarantined and the Manager routes around it) until Repair.
//
// A Maintainer's callbacks must be driven by a single writer goroutine
// at a time (the object base serializes mutations, so this holds
// whenever updates flow through one ObjectBase). Err is safe to call
// from any goroutine; each applied change takes the index's write lock,
// so concurrent index readers see atomic transitions.
type Maintainer struct {
	ix      *Index
	mu      sync.Mutex // guards the retry policy
	retries int
	backoff time.Duration
	ctx     context.Context
}

// NewMaintainer creates a maintainer for the index with the default
// retry policy (2 retries, 200µs initial backoff).
func NewMaintainer(ix *Index) *Maintainer {
	return &Maintainer{ix: ix, retries: 2, backoff: 200 * time.Microsecond, ctx: context.Background()}
}

// SetContext bounds the retry/backoff loop: a cancelled context stops
// further attempts between retries (the update is then a terminal
// failure and the index quarantines, exactly as if the retries were
// exhausted — a skipped update would silently drift otherwise). Pass
// context.Background() to remove a bound. Call from the same goroutine
// that drives the object-base updates.
func (m *Maintainer) SetContext(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	m.ctx = ctx
}

// SetRetryPolicy configures how transient maintenance faults are
// retried: up to retries re-attempts per update, sleeping backoff,
// 2·backoff, 4·backoff, … between them. retries = 0 disables retrying.
func (m *Maintainer) SetRetryPolicy(retries int, backoff time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if retries < 0 {
		retries = 0
	}
	m.retries, m.backoff = retries, backoff
}

// Err returns why the index is quarantined — the maintenance failure,
// or whatever else took it out of service (damage found at open or by
// Verify) — or nil while it is being maintained. Safe for concurrent
// use.
func (m *Maintainer) Err() error { return m.ix.QuarantineReason() }

// retryPolicy snapshots the current policy. Safe for concurrent use.
func (m *Maintainer) retryPolicy() (int, time.Duration, context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retries, m.backoff, m.ctx
}

// apply runs one update's edge changes through the index with the
// maintainer's retry policy; a terminal error quarantines the index,
// which records it. While the
// index is quarantined its graph no longer tracks the object base, so
// further incremental maintenance would only compound the drift —
// updates are skipped until Repair resynchronizes everything from the
// base.
func (m *Maintainer) apply(changes []edgeChange) {
	if m.ix.Quarantined() {
		return
	}
	retries, backoff, ctx := m.retryPolicy()
	m.ix.applyChanges(ctx, changes, retries, backoff)
}

// edgeChange is one path-graph edge addition or removal at column col
// (edge from col to col+1).
type edgeChange struct {
	col      int
	from, to gom.Value
	add      bool
}

// AttrAssigned implements gom.Observer.
func (m *Maintainer) AttrAssigned(o *gom.Object, attr string, old, new gom.Value) {
	for j := 1; j <= m.ix.path.Len(); j++ {
		step := m.ix.path.Step(j)
		if step.Attr != attr || !o.Type().IsSubtypeOf(step.Domain) {
			continue
		}
		domCol := m.ix.path.ObjectColumn(j - 1)
		u := gom.Value(gom.Ref(o.ID()))
		var changes []edgeChange
		if step.IsSetOccurrence() {
			changes = m.setAttrChanges(domCol, u, old, new)
		} else {
			if old != nil {
				changes = append(changes, edgeChange{domCol, u, old, false})
			}
			if new != nil {
				changes = append(changes, edgeChange{domCol, u, new, true})
			}
		}
		m.apply(changes)
	}
}

// setAttrChanges computes the edge changes for reassigning a set-valued
// attribute from set object old to set object new: the o→set edge moves,
// and element edges of a set object exist in the graph only while the
// set is referenced from within the path (Definition 3.3 pairs set
// elements with a referencing object).
func (m *Maintainer) setAttrChanges(domCol int, u, old, new gom.Value) []edgeChange {
	g := m.ix.graph
	var changes []edgeChange
	if old != nil {
		changes = append(changes, edgeChange{domCol, u, old, false})
		// If u was the only referencer, the old set's element edges die.
		if preds := g.predecessors(domCol+1, old); len(preds) == 1 && gom.ValuesEqual(preds[0], u) {
			for _, e := range g.successors(domCol+1, old) {
				changes = append(changes, edgeChange{domCol + 1, old, e, false})
			}
		}
	}
	if new != nil {
		// If the new set was unreferenced, its element edges come alive.
		if !g.referenced(domCol+1, new) {
			if ref, ok := new.(gom.Ref); ok {
				if setObj, ok := m.ix.ob.Get(ref.OID()); ok {
					for _, e := range setObj.LiveElements() {
						changes = append(changes, edgeChange{domCol + 1, new, e, true})
					}
				}
			}
		}
		changes = append(changes, edgeChange{domCol, u, new, true})
	}
	return changes
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
	for j := 1; j <= m.ix.path.Len(); j++ {
		step := m.ix.path.Step(j)
		if !step.IsSetOccurrence() || step.Set != set.Type() {
			continue
		}
		setCol := m.ix.path.ObjectColumn(j-1) + 1
		s := gom.Value(gom.Ref(set.ID()))
		// Element edges only exist while the set is referenced within the
		// path; an unreferenced set contributes no rows.
		if !m.ix.graph.referenced(setCol, s) {
			continue
		}
		m.apply([]edgeChange{{setCol, s, elem, add}})
	}
}

// ObjectDeleted implements gom.Observer: every edge adjacent to the
// deleted object disappears, with the set-element cascade applied where
// the object referenced a set it was the last referencer of.
func (m *Maintainer) ObjectDeleted(o *gom.Object) {
	g := m.ix.graph
	v := gom.Value(gom.Ref(o.ID()))
	var changes []edgeChange
	for c := 0; c <= g.m; c++ {
		for _, to := range g.successors(c, v) {
			changes = append(changes, edgeChange{c, v, to, false})
			// Cascade: o may have been the only path reference keeping a
			// set object's element edges alive.
			if c+1 <= g.m {
				if preds := g.predecessors(c+1, to); len(preds) == 1 && gom.ValuesEqual(preds[0], v) && m.isSetColumn(c+1) {
					for _, e := range g.successors(c+1, to) {
						changes = append(changes, edgeChange{c + 1, to, e, false})
					}
				}
			}
		}
		for _, from := range g.predecessors(c, v) {
			changes = append(changes, edgeChange{c - 1, from, v, false})
		}
	}
	m.apply(changes)
}

// isSetColumn reports whether relation column c holds set-object OIDs.
func (m *Maintainer) isSetColumn(c int) bool {
	if c == 0 {
		return false
	}
	_, isSet := m.ix.path.StepOfColumn(c)
	return isSet
}

// applyChanges performs the diff protocol: enumerate affected rows
// before the graph mutation, mutate, enumerate after, and apply the row
// difference to all partitions transactionally. It takes the index's
// write lock, so concurrent queries see either the whole change or none
// of it.
//
// The partition updates run under a storage undo transaction
// (applyDiffTxn). A failed attempt — typically an
// injected or real device fault during a B⁺-tree page write-back — is
// rolled back and retried up to retries times with exponential backoff
// starting at backoff. If every attempt fails, the effective graph
// mutations are reversed too (restoring the exact pre-update state) and
// the index is quarantined with the attempts' errors as its reason: its
// stored rows are consistent with the pre-update object base, which no
// longer exists, so only Repair can bring it back.
func (ix *Index) applyChanges(ctx context.Context, changes []edgeChange, retries int, backoff time.Duration) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(changes) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// Affected (column, value) endpoints, deduplicated.
	type cv struct {
		col int
		key string
	}
	affected := map[cv]gom.Value{}
	addAffected := func(col int, v gom.Value) {
		if v != nil {
			affected[cv{col, gom.ValueString(v)}] = v
		}
	}
	for _, ch := range changes {
		addAffected(ch.col, ch.from)
		addAffected(ch.col+1, ch.to)
	}

	collect := func() map[string]relation.Tuple {
		rows := map[string]relation.Tuple{}
		for k, v := range affected {
			for _, row := range ix.graph.rowsThrough(ix.ext, k.col, v) {
				rows[row.Key()] = row
			}
		}
		return rows
	}

	before := collect()
	// Mutate the graph, recording which mutations took effect (addEdge
	// deduplicates, removeEdge reports existence) so a terminal failure
	// can reverse exactly those.
	effective := make([]edgeChange, 0, len(changes))
	for _, ch := range changes {
		if ch.add {
			if ix.graph.addEdge(ch.col, ch.from, ch.to) {
				effective = append(effective, ch)
			}
		} else {
			if ix.graph.removeEdge(ch.col, ch.from, ch.to) {
				effective = append(effective, ch)
			}
		}
	}
	after := collect()

	var removes, adds []relation.Tuple
	for k, row := range before {
		if _, still := after[k]; !still {
			removes = append(removes, row)
		}
	}
	for k, row := range after {
		if _, was := before[k]; !was {
			adds = append(adds, row)
		}
	}

	var attempts []error
	for attempt := 0; ; attempt++ {
		err := ix.applyDiffTxn(removes, adds)
		if err == nil {
			return
		}
		attempts = append(attempts, fmt.Errorf("attempt %d: %w", attempt+1, err))
		if attempt >= retries {
			break
		}
		// Honor cancellation between attempts: a cancelled context must
		// not sleep through its backoff, and the update must not be
		// retried under it — it becomes a terminal failure below.
		timer := time.NewTimer(backoff << uint(attempt))
		select {
		case <-ctx.Done():
			timer.Stop()
			attempts = append(attempts, fmt.Errorf("retry abandoned: %w", ctx.Err()))
		case <-timer.C:
			ix.nRetries.Add(1)
			telMaintRetries.Inc()
			continue
		}
		break
	}

	// Terminal failure: every attempt rolled the partitions back to the
	// pre-update state, so reverse the graph mutations to match and
	// quarantine the index.
	for i := len(effective) - 1; i >= 0; i-- {
		ch := effective[i]
		if ch.add {
			ix.graph.removeEdge(ch.col, ch.from, ch.to)
		} else {
			ix.graph.addEdge(ch.col, ch.from, ch.to)
		}
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
