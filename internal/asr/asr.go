package asr

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"asr/internal/costmodel"
	"asr/internal/gom"
	"asr/internal/relation"
	"asr/internal/storage"
)

// ErrNotSupported is returned when a query span cannot be answered by
// the chosen extension (§5.3): callers fall back to object traversal.
var ErrNotSupported = fmt.Errorf("asr: query span not supported by this extension")

// ErrQuarantined is returned by index queries while the index is
// quarantined after an unrecoverable maintenance failure: its stored
// rows may be stale, so callers must fall back to object traversal or
// exhaustive search (the Manager does this automatically) until Repair
// lifts the quarantine.
var ErrQuarantined = fmt.Errorf("asr: index quarantined")

// PlacedPartition is a stored partition together with the inclusive
// column window [Lo, Hi] it covers within this index's path. The same
// *Partition may be placed in two indexes at different windows when
// paths share a segment (§5.4).
type PlacedPartition struct {
	Lo, Hi int
	Part   *Partition
}

// Index is a materialized access support relation over one path
// expression: the chosen extension, decomposed per Definition 3.8, each
// partition stored in two clustered B⁺-trees — the only copy of its
// rows — and kept consistent with the object base by its Manager.
//
// An Index is safe for concurrent readers: QueryForward, QueryBackward,
// their Ctx forms, TotalRows, Stats and the accessor methods may be
// called from any number of goroutines, concurrently with one
// maintaining writer (the Manager's steps and ReleasePages take the
// write lock). The physical partitions carry their own locks, so an
// index stays safe even when a partition it reads is shared with —
// and maintained through — another index (§5.4).
type Index struct {
	mu    sync.RWMutex // guards parts; maintenance holds it across an update
	ob    *gom.ObjectBase
	path  *gom.PathExpression
	ext   Extension
	dec   Decomposition
	parts []PlacedPartition
	pool  *storage.BufferPool

	// quarReason holds why the index is out of service, nil while it is
	// usable: the one record of a failed index (Manager.Healthy reads
	// it).
	quarReason atomic.Pointer[error]

	nQueries     atomic.Uint64
	nRowsScanned atomic.Uint64
	nRetries     atomic.Uint64
	nRollbacks   atomic.Uint64
}

// IndexStats counts one index's activity since construction (or the
// last ResetStats): queries answered and stored rows inspected while
// answering them (rows returned by clustered probes plus rows filtered
// by interior-column partition scans), plus the maintenance fault
// counters — transient-fault retries, failed update attempts (each
// rolled back, or abandoned by its search before it wrote anything),
// and whether the index is currently quarantined.
type IndexStats struct {
	Queries     uint64
	RowsScanned uint64
	Retries     uint64
	Rollbacks   uint64
	Quarantined bool
}

// Stats returns a snapshot of the index's counters. Safe for concurrent
// use, and self-consistent even while maintenance is failing: the
// maintenance writer increments nRollbacks before nRetries (a retry is
// only decided after its attempt rolled back) and sets the quarantine
// flag only after the final rollback, so loading in the opposite order
// — quarantined first, then retries, then rollbacks — guarantees every
// snapshot satisfies
//
//	Quarantined ⇒ Rollbacks ≥ 1
//	Retries ≤ Rollbacks
func (ix *Index) Stats() IndexStats {
	quarantined := ix.Quarantined()
	retries := ix.nRetries.Load()
	rollbacks := ix.nRollbacks.Load()
	return IndexStats{
		Queries:     ix.nQueries.Load(),
		RowsScanned: ix.nRowsScanned.Load(),
		Retries:     retries,
		Rollbacks:   rollbacks,
		Quarantined: quarantined,
	}
}

// addRowsScanned bumps the scoped counter and its registry mirror.
func (ix *Index) addRowsScanned(n uint64) {
	if n == 0 {
		return
	}
	ix.nRowsScanned.Add(n)
	telIxRowsScanned.Add(n)
}

// Quarantined reports whether the index is quarantined (stale after an
// unrecoverable maintenance failure). Safe for concurrent use.
func (ix *Index) Quarantined() bool { return ix.quarReason.Load() != nil }

// QuarantineReason returns the error that quarantined the index, or nil.
func (ix *Index) QuarantineReason() error {
	if reason := ix.quarReason.Load(); reason != nil {
		return *reason
	}
	return nil
}

// quarantine marks the index unusable for queries until Repair.
func (ix *Index) quarantine(err error) {
	ix.quarReason.Store(&err)
	telMaintQuarantines.Inc()
}

// clearQuarantine lifts the quarantine (Repair succeeded).
func (ix *Index) clearQuarantine() { ix.quarReason.Store(nil) }

// ResetStats zeroes every activity counter — the read counters and the
// maintenance fault counters. The quarantine flag is state, not a
// counter, and is only cleared by Repair.
func (ix *Index) ResetStats() {
	ix.nQueries.Store(0)
	ix.nRowsScanned.Store(0)
	ix.nRetries.Store(0)
	ix.nRollbacks.Store(0)
}

// Build materializes the access support relation for path over ob in the
// given extension and decomposition, storing partitions on pool's pages.
// The index is static; Manager.CreateIndex builds a maintained one.
// Partition trees are bulk-loaded bottom-up from the sorted row set —
// O(rows) sequential page writes per tree instead of a random top-down
// insert per row.
func Build(ob *gom.ObjectBase, path *gom.PathExpression, ext Extension, dec Decomposition, pool *storage.BufferPool) (*Index, error) {
	return build(ob, path, ext, dec, pool, nil)
}

// build optionally accepts preset partitions keyed by partition index —
// used for physical sharing between overlapping paths (§5.4). Preset
// partitions receive this index's projected rows on top of whatever they
// already hold; equal rows merge via reference counting.
func build(ob *gom.ObjectBase, path *gom.PathExpression, ext Extension, dec Decomposition, pool *storage.BufferPool, preset map[int]*Partition) (*Index, error) {
	m := path.Arity() - 1
	if err := dec.Validate(m); err != nil {
		return nil, err
	}
	rows, err := extensionRows(ob, path, ext)
	if err != nil {
		return nil, err
	}
	ix := &Index{ob: ob, path: path, ext: ext, dec: dec, pool: pool}

	// Fresh partitions are bulk-loaded from the reference-counted
	// projections (one sequential tree build instead of a random insert
	// per row). Preset partitions — physically shared with another index
	// (§5.4) — already hold rows and are merged incrementally instead.
	projRows, refcnt := projectRows(rows, dec)

	for p := 0; p < dec.NumPartitions(); p++ {
		lo, hi := dec.Partition(p)
		part := preset[p]
		if part == nil {
			part, err = NewPartitionBulk(pool, fmt.Sprintf("E_%s^%d,%d", ext, lo, hi),
				hi-lo+1, projRows[p], refcnt[p])
			if err != nil {
				return nil, err
			}
		} else {
			if part.Arity() != hi-lo+1 {
				return nil, fmt.Errorf("asr: preset partition %s has arity %d, window [%d,%d] needs %d",
					part.Name(), part.Arity(), lo, hi, hi-lo+1)
			}
			for _, row := range rows {
				if err := part.AddProjected(row[lo : hi+1]); err != nil {
					return nil, err
				}
			}
		}
		part.acquire()
		ix.parts = append(ix.parts, PlacedPartition{Lo: lo, Hi: hi, Part: part})
	}
	return ix, nil
}

// ReleasePages releases the index's claim on its partitions; partitions
// not shared with another index have their B⁺-tree pages reclaimed.
// In-flight queries finish first (they hold the index's read lock);
// queries started afterwards fail with an error.
func (ix *Index) ReleasePages() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, pp := range ix.parts {
		if err := pp.Part.release(); err != nil {
			return err
		}
	}
	ix.parts = nil
	return nil
}

// Path returns the indexed path expression.
func (ix *Index) Path() *gom.PathExpression { return ix.path }

// Extension returns the stored extension.
func (ix *Index) Extension() Extension { return ix.ext }

// Decomposition returns the stored decomposition.
func (ix *Index) Decomposition() Decomposition { return append(Decomposition(nil), ix.dec...) }

// Partitions returns the placed partitions in column order.
func (ix *Index) Partitions() []PlacedPartition {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]PlacedPartition(nil), ix.parts...)
}

// Pool returns the buffer pool the partitions live on.
func (ix *Index) Pool() *storage.BufferPool { return ix.pool }

// Supports reports whether the index can evaluate Q_{i,j} (object steps
// 0 ≤ i < j ≤ n), per eq. (35).
func (ix *Index) Supports(i, j int) bool {
	return costmodel.Supported(ix.ext, ix.path.Len(), i, j)
}

// edges returns the column a walk in the given direction enters the
// placed partition by and the column it leaves by. Forward and backward
// evaluation are mirror images (eqs. 33/34); this swap is the only
// place the direction shows.
func (pp PlacedPartition) edges(fwd bool) (enter, leave int) {
	if fwd {
		return pp.Lo, pp.Hi
	}
	return pp.Hi, pp.Lo
}

// partitionEntering returns the partition a walk standing on col enters
// next: the one whose window contains col anywhere but on the edge the
// walk would leave it by. Adjacent windows share their border column
// (Definition 3.8), so exactly one partition qualifies.
func (ix *Index) partitionEntering(col int, fwd bool) (PlacedPartition, error) {
	for _, pp := range ix.parts {
		if _, leave := pp.edges(fwd); pp.Lo <= col && col <= pp.Hi && col != leave {
			return pp, nil
		}
	}
	return PlacedPartition{}, fmt.Errorf("asr: no partition covers column %d", col)
}

// Query evaluates Q_{i,j}. Forward (fwd) it returns the distinct column
// values at object step j reachable from the given values at object
// step i, following stored rows left to right across partitions
// (§5.7.1); backward it returns the values at step i from which some
// given value at step j is reachable, right to left through the
// backward-clustered trees (§5.7.2). It walks the frontier from the
// column of the start step towards the goal's, one partition per hop. A
// hop that starts on the edge its partition is entered by probes the
// tree clustered on that edge per value; one that starts inside the
// window scans the partition and filters on the interior column —
// exactly the two cases of eq. (33). Cancellation or deadline expiry
// aborts the evaluation and returns ctx's error. Safe for concurrent
// use.
func (ix *Index) Query(ctx context.Context, fwd bool, i, j int, vals ...gom.Value) ([]gom.Value, error) {
	if !ix.Supports(i, j) {
		return nil, ErrNotSupported
	}
	if ix.Quarantined() {
		return nil, fmt.Errorf("asr: index on %s: %w", ix.path, ErrQuarantined)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.parts) == 0 {
		return nil, fmt.Errorf("asr: index on %s: pages released", ix.path)
	}
	ix.nQueries.Add(1)
	telIxQueries.Inc()
	col, goal := ix.path.ObjectColumn(i), ix.path.ObjectColumn(j)
	if !fwd {
		col, goal = goal, col
	}
	cur := newValueSet(vals...)
	for col != goal {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pp, err := ix.partitionEntering(col, fwd)
		if err != nil {
			return nil, err
		}
		enter, target := pp.edges(fwd)
		if pp.Lo <= goal && goal <= pp.Hi {
			target = goal
		}
		var next *valueSet
		if col == enter {
			next, err = ix.probeAll(ctx, pp.Part, fwd, cur.values(), target-pp.Lo)
		} else {
			next, err = ix.scanInterior(ctx, pp.Part, cur, col-pp.Lo, target-pp.Lo)
		}
		if err != nil {
			return nil, err
		}
		cur, col = next, target
	}
	return cur.values(), nil
}

// scanCtxStride is how many scanned rows pass between context checks in
// interior-column partition scans.
const scanCtxStride = 1024

// scanInterior passes over the whole partition and collects column to
// of every row whose column from is in the frontier.
func (ix *Index) scanInterior(ctx context.Context, part *Partition, frontier *valueSet, from, to int) (*valueSet, error) {
	next := newValueSet()
	var scanned uint64
	err := part.ScanAll(func(r relation.Tuple) bool {
		scanned++
		if scanned%scanCtxStride == 0 && ctx.Err() != nil {
			return false
		}
		if frontier.contains(r[from]) {
			next.add(r[to])
		}
		return true
	})
	ix.addRowsScanned(scanned)
	if err == nil {
		err = ctx.Err()
	}
	return next, err
}

// probeBatchSize is how many frontier values each sorted batch probe
// carries; it also bounds the stretch between context checks. Within a
// batch the partition sorts the encoded probe keys, so a probe landing
// in the leaf the previous one left pinned costs no page and every
// other costs one descent (btree.ScanPrefixes).
const probeBatchSize = 256

// probeAll resolves the clustered probes for a whole frontier and
// collects column off of every matching row into one deduplicated set.
// Probes go to the partition in sorted batches of probeBatchSize
// (Partition.LookupBatch), so values sharing a leaf share its descent.
// Cancellation of ctx stops the probes between batches.
func (ix *Index) probeAll(ctx context.Context, part *Partition, fwd bool, vals []gom.Value, off int) (*valueSet, error) {
	found := newValueSet()
	var scanned uint64
	defer func() { ix.addRowsScanned(scanned) }()
	for lo := 0; lo < len(vals); lo += probeBatchSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rowsets, err := part.LookupBatch(fwd, vals[lo:min(lo+probeBatchSize, len(vals))])
		if err != nil {
			return nil, err
		}
		for _, rows := range rowsets {
			scanned += uint64(len(rows))
			for _, r := range rows {
				found.add(r[off])
			}
		}
	}
	return found, nil
}

// OIDsOf filters reference values down to their OIDs, in sorted order —
// a convenience for query results over object columns.
func OIDsOf(vals []gom.Value) []gom.OID {
	var out []gom.OID
	for _, v := range vals {
		if r, ok := v.(gom.Ref); ok {
			out = append(out, r.OID())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalRows returns the stored row count per partition. Safe for
// concurrent use.
func (ix *Index) TotalRows() []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]int, len(ix.parts))
	for i, pp := range ix.parts {
		out[i] = pp.Part.Rows()
	}
	return out
}

// String summarizes the index.
func (ix *Index) String() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "ASR %s ext=%s dec=%s:", ix.path, ix.ext, ix.dec)
	for _, pp := range ix.parts {
		fmt.Fprintf(&b, " %s[%d rows]", pp.Part.Name(), pp.Part.Rows())
	}
	return b.String()
}

// valueSet is a small deduplicating set of values.
type valueSet struct {
	byKey map[string]gom.Value
}

func newValueSet(vs ...gom.Value) *valueSet {
	s := &valueSet{byKey: map[string]gom.Value{}}
	for _, v := range vs {
		s.add(v)
	}
	return s
}

func (s *valueSet) add(v gom.Value) {
	if v == nil {
		return
	}
	s.byKey[gom.ValueString(v)] = v
}

func (s *valueSet) contains(v gom.Value) bool {
	if v == nil {
		return false
	}
	_, ok := s.byKey[gom.ValueString(v)]
	return ok
}

func (s *valueSet) values() []gom.Value {
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]gom.Value, len(keys))
	for i, k := range keys {
		out[i] = s.byKey[k]
	}
	return out
}
