package asr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"asr/internal/gom"
	"asr/internal/storage"
)

// QueryEvent describes one routed path query; the Manager reports it to
// an optional hook so a workload recorder (package tuner) can derive the
// operation mix the paper's design procedure needs (§6.4, §7).
type QueryEvent struct {
	Path    string
	Forward bool
	I, J    int
}

// Manager owns the access support relations of one object base: it
// builds and drops indexes, maintains all of them as the base's one
// index observer (maintain.go), routes path queries to the best usable
// index, and falls back to object traversal (forward) or exhaustive
// search (backward) when no index applies — the execution strategies of
// §5.6.
//
// A Manager is safe for concurrent use: QueryForward, QueryBackward,
// their Ctx forms, FindIndex, Indexes, Healthy and Stats may be called
// from any number of goroutines, concurrently with at most one goroutine
// mutating the underlying object base (whose updates drive the
// Manager's maintenance) and with CreateIndex/DropIndex, which take the
// registry's write lock. The query-event hook may be invoked
// concurrently and must be safe for that.
type Manager struct {
	mu      sync.RWMutex
	ob      *gom.ObjectBase
	pool    *storage.BufferPool
	entries []*managedIndex
	hook    func(QueryEvent)

	nQueries    atomic.Uint64
	nIndexHits  atomic.Uint64
	nTraversals atomic.Uint64
	nExhaustive atomic.Uint64
	nDegraded   atomic.Uint64 // fallbacks forced by a quarantined index
}

type managedIndex struct {
	ix   *Index
	hits atomic.Uint64 // queries routed to this index
}

// NewManager creates a manager whose indexes allocate pages from pool
// and registers it as ob's observer, so every index it creates or opens
// is maintained under ob's updates.
func NewManager(ob *gom.ObjectBase, pool *storage.BufferPool) *Manager {
	m := &Manager{ob: ob, pool: pool}
	ob.AddObserver(m)
	return m
}

// Pool returns the buffer pool the managed indexes allocate from —
// the pool whose page traffic an index-backed query shows up on, which
// is what query.Engine.ExplainAnalyze measures against the cost model.
func (m *Manager) Pool() *storage.BufferPool { return m.pool }

// SetHook installs a query-event callback (nil to remove). The hook may
// be called from any goroutine issuing queries.
func (m *Manager) SetHook(fn func(QueryEvent)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hook = fn
}

// CreateIndex builds and registers a maintained index.
func (m *Manager) CreateIndex(path *gom.PathExpression, ext Extension, dec Decomposition) (*Index, error) {
	return m.create(path, ext, dec, nil)
}

// CreateShared creates maintained indexes for both paths in the plan
// PlanSharing picks, storing their common segment once, in one
// reference-counted partition (§5.4) that every update maintains for
// both in one step.
func (m *Manager) CreateShared(p, q *gom.PathExpression) (*SharedPair, error) {
	plan, err := PlanSharing(p, q)
	if err != nil {
		return nil, err
	}
	pIx, err := m.create(p, plan.Extension, plan.PDec, nil)
	if err != nil {
		return nil, err
	}
	qIx, err := m.create(q, plan.Extension, plan.QDec, map[int]*Partition{plan.QPartIdx: pIx.parts[plan.PPartIdx].Part})
	if err != nil {
		return nil, errors.Join(err, m.DropIndex(pIx))
	}
	return &SharedPair{Plan: plan, P: pIx, Q: qIx}, nil
}

// create builds an index, over the preset partitions build takes, and
// registers it unless the manager has it already.
func (m *Manager) create(path *gom.PathExpression, ext Extension, dec Decomposition, preset map[int]*Partition) (*Index, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.ix.path.String() == path.String() && e.ix.ext == ext && e.ix.dec.String() == dec.String() {
			return nil, fmt.Errorf("asr: index %s %s %s already exists", path, ext, dec)
		}
	}
	ix, err := build(m.ob, path, ext, dec, m.pool, preset)
	if err != nil {
		return nil, err
	}
	m.entries = append(m.entries, &managedIndex{ix: ix})
	return ix, nil
}

// DropIndex unregisters an index, ending its maintenance, and reclaims the
// pages of every partition not shared with another index (§5.4 sharing
// keeps shared partitions alive until their last owner is dropped).
// Queries already running against the index finish first.
func (m *Manager) DropIndex(ix *Index) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, e := range m.entries {
		if e.ix == ix {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			return ix.ReleasePages()
		}
	}
	return fmt.Errorf("asr: index not managed: %s", ix)
}

// Indexes returns the managed indexes.
func (m *Manager) Indexes() []*Index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Index, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.ix
	}
	return out
}

// managed reports an error unless ix is one of the manager's indexes.
func (m *Manager) managed(ix *Index) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, e := range m.entries {
		if e.ix == ix {
			return nil
		}
	}
	return fmt.Errorf("asr: index not managed: %s", ix)
}

// Repair resynchronizes a quarantined managed index with the object
// base (see Index.Repair); maintenance resumes with the next update.
// Must be called with object-base mutation quiesced (the single-writer
// rule).
func (m *Manager) Repair(ix *Index) (VerifyReport, error) {
	if err := m.managed(ix); err != nil {
		return VerifyReport{}, err
	}
	return ix.Repair()
}

// Healthy reports the first quarantined index and why it is out of
// service — a failed maintenance update, damage found at open or by
// Verify — or nil when every index is usable.
func (m *Manager) Healthy() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, e := range m.entries {
		if err := e.ix.QuarantineReason(); err != nil {
			return fmt.Errorf("asr: index %s: %w", e.ix, err)
		}
	}
	return nil
}

// FindIndex returns the cheapest usable index for Q_{i,j} over the path,
// or nil. "Cheapest" prefers the fewest stored rows — a proxy for the
// eq. (33)/(34) cost that needs no model evaluation. Quarantined
// indexes are never returned: their stored rows may be stale.
func (m *Manager) FindIndex(path *gom.PathExpression, i, j int) *Index {
	e, _ := m.findEntry(path, i, j)
	if e == nil {
		return nil
	}
	return e.ix
}

// findEntry picks the cheapest healthy index for the query. degraded
// reports that at least one matching index was passed over because it
// is quarantined — the caller is about to pay the fallback cost for a
// query an index was built for.
func (m *Manager) findEntry(path *gom.PathExpression, i, j int) (e *managedIndex, degraded bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var candidates []*managedIndex
	for _, e := range m.entries {
		if e.ix.path.String() == path.String() && e.ix.Supports(i, j) {
			if e.ix.Quarantined() {
				degraded = true
				continue
			}
			candidates = append(candidates, e)
		}
	}
	if len(candidates) == 0 {
		return nil, degraded
	}
	sort.Slice(candidates, func(a, b int) bool {
		return totalRows(candidates[a].ix) < totalRows(candidates[b].ix)
	})
	return candidates[0], false
}

func totalRows(ix *Index) int {
	total := 0
	for _, n := range ix.TotalRows() {
		total += n
	}
	return total
}

// fireHook reports a query event to the installed hook, if any.
func (m *Manager) fireHook(ev QueryEvent) {
	m.mu.RLock()
	hook := m.hook
	m.mu.RUnlock()
	if hook != nil {
		hook(ev)
	}
}

// QueryForward evaluates Q_{i,j}(fw) through the best index, or by
// object traversal when none applies (or the matching indexes are all
// quarantined). Safe for concurrent use.
func (m *Manager) QueryForward(path *gom.PathExpression, i, j int, start ...gom.Value) ([]gom.Value, error) {
	return m.query(context.Background(), true, path, i, j, start)
}

// QueryBackward evaluates Q_{i,j}(bw) through the best index, or by
// exhaustive search over the uni-directional references when none
// applies (§5.6.2) or the matching indexes are all quarantined. Safe
// for concurrent use.
func (m *Manager) QueryBackward(path *gom.PathExpression, i, j int, end ...gom.Value) ([]gom.Value, error) {
	return m.query(context.Background(), false, path, i, j, end)
}

// QueryBackwardCtx is QueryBackward honoring ctx. Cancellation or
// deadline expiry aborts the index probes or the fallback and returns
// ctx's error. The query runs on the caller's goroutine; workers is
// ignored — it remains for callers written when the exhaustive search
// could fan out.
func (m *Manager) QueryBackwardCtx(ctx context.Context, path *gom.PathExpression, i, j, workers int, end ...gom.Value) ([]gom.Value, error) {
	return m.query(ctx, false, path, i, j, end)
}

// query is the one routing body: report the event, pick the cheapest
// healthy index, and answer through it or through the direction's
// fallback strategy (§5.6).
func (m *Manager) query(ctx context.Context, fwd bool, path *gom.PathExpression, i, j int, vals []gom.Value) ([]gom.Value, error) {
	m.fireHook(QueryEvent{Path: path.String(), Forward: fwd, I: i, J: j})
	m.nQueries.Add(1)
	telQueries.Inc()
	e, degraded := m.findEntry(path, i, j)
	if e != nil {
		m.nIndexHits.Add(1)
		telIndexHits.Inc()
		e.hits.Add(1)
		return e.ix.Query(ctx, fwd, i, j, vals...)
	}
	// Increment order matters for torn-free Stats snapshots: the
	// category counter is bumped before the degraded counter, and Stats
	// loads them in the opposite order, so every snapshot satisfies
	// Degraded ≤ Traversals + ExhaustiveSearches.
	if fwd {
		m.nTraversals.Add(1)
		telTraversals.Inc()
	} else {
		m.nExhaustive.Add(1)
		telExhaustive.Inc()
	}
	if degraded {
		m.nDegraded.Add(1)
		telDegraded.Inc()
	}
	if i < 0 || j > path.Len() || i >= j {
		return nil, fmt.Errorf("asr: bad query span (%d,%d) for path of length %d", i, j, path.Len())
	}
	if fwd {
		// Q_nas from a set of t_i values: the object base's one path
		// closure (gom.ObjectBase.Reach).
		reached, _ := m.ob.Reach(path, i, j, vals...)
		return newValueSet(reached...).values(), nil
	}
	// Exhaustive search: walk forward from every t_i instance and keep
	// the anchors whose path reaches an end value, a block of anchors per
	// read lock and per cancellation check.
	extent := m.ob.Extent(path.Step(i+1).Domain, true)
	anchors := make([]gom.Value, len(extent))
	for k, id := range extent {
		anchors[k] = gom.Ref(id)
	}
	hits, _, err := m.ob.NewWalker().KeepReaching(ctx, anchors[:0], anchors, path, i, j, vals...)
	if err != nil {
		return nil, err
	}
	return newValueSet(hits...).values(), nil
}

// ManagedIndexStats describes one managed index's activity inside a
// ManagerStats snapshot.
type ManagedIndexStats struct {
	Path          string // indexed path expression
	Ext           string // extension (can/full/left/right)
	Dec           string // decomposition
	Rows          int    // stored rows, summed over partitions
	Hits          uint64 // queries the manager routed to this index
	Queries       uint64 // queries the index answered (incl. direct calls)
	RowsScanned   uint64 // stored rows inspected answering them
	MaintenanceOK bool   // false after a maintenance error (index stale)
	Quarantined   bool   // true while the index is routed around
	Retries       uint64 // transient-fault maintenance retries
	Rollbacks     uint64 // rolled-back maintenance transactions
}

// ManagerStats is an observability snapshot of the manager's routing
// and of every managed index (§5.6 execution strategy mix).
type ManagerStats struct {
	Queries            uint64 // total routed queries
	IndexHits          uint64 // answered through some index
	Traversals         uint64 // forward fallback: object traversal
	ExhaustiveSearches uint64 // backward fallback: exhaustive search
	DegradedQueries    uint64 // fallbacks forced by a quarantined index
	Indexes            []ManagedIndexStats
}

// Stats returns a snapshot of routing counters and per-index activity.
// Safe for concurrent use, and every snapshot is self-consistent even
// while queries and maintenance are in flight: counters are loaded in
// the reverse of the writers' increment order, so the invariants
//
//	IndexHits + Traversals + ExhaustiveSearches ≤ Queries
//	DegradedQueries ≤ Traversals + ExhaustiveSearches
//	Quarantined ⇒ !MaintenanceOK and Rollbacks ≥ 1 (per index)
//
// hold in every snapshot, and successive snapshots are monotonic.
func (m *Manager) Stats() ManagerStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var st ManagerStats
	// Writers bump the category counter before nDegraded, so loading
	// nDegraded first can only under-count it relative to the categories.
	st.DegradedQueries = m.nDegraded.Load()
	st.IndexHits = m.nIndexHits.Load()
	st.Traversals = m.nTraversals.Load()
	st.ExhaustiveSearches = m.nExhaustive.Load()
	// nQueries is bumped before any category counter, so it is loaded
	// last: the categories can never sum past it.
	st.Queries = m.nQueries.Load()
	for _, e := range m.entries {
		ixStats := e.ix.Stats()
		st.Indexes = append(st.Indexes, ManagedIndexStats{
			Path:          e.ix.path.String(),
			Ext:           e.ix.ext.String(),
			Dec:           e.ix.dec.String(),
			Rows:          totalRows(e.ix),
			Hits:          e.hits.Load(),
			Queries:       ixStats.Queries,
			RowsScanned:   ixStats.RowsScanned,
			MaintenanceOK: !ixStats.Quarantined,
			Quarantined:   ixStats.Quarantined,
			Retries:       ixStats.Retries,
			Rollbacks:     ixStats.Rollbacks,
		})
	}
	return st
}

// ResetStats zeroes the manager's routing counters and every managed
// index's read counters.
func (m *Manager) ResetStats() {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.nQueries.Store(0)
	m.nIndexHits.Store(0)
	m.nTraversals.Store(0)
	m.nExhaustive.Store(0)
	m.nDegraded.Store(0)
	for _, e := range m.entries {
		e.hits.Store(0)
		e.ix.ResetStats()
	}
}
