package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/telemetry"
)

// Engine evaluates parsed queries against an object base. With a
// non-nil asr.Manager, where-predicates whose composed path expression
// has a usable access support relation are rewritten into backward index
// queries that pre-filter the outer collection — the paper's intended
// use of ASRs in query evaluation (§5).
//
// An Engine is stateless between calls and safe for concurrent use: any
// number of goroutines may call Run and RunCtx simultaneously,
// concurrently with at most one writer mutating the object base (the
// readers/writer discipline of gom.ObjectBase and asr.Manager).
type Engine struct {
	ob  *gom.ObjectBase
	mgr *asr.Manager
}

// New creates a query engine; mgr may be nil for pure traversal.
func New(ob *gom.ObjectBase, mgr *asr.Manager) *Engine {
	return &Engine{ob: ob, mgr: mgr}
}

// Result carries the projected values (set semantics, deterministic
// order) and a human-readable plan describing index use.
type Result struct {
	Values []gom.Value
	Plan   string
}

// binding resolution -------------------------------------------------

type boundRange struct {
	r        Range
	elemType *gom.Type
	// For collection ranges: the set object to iterate.
	setOID gom.OID
	// For dependent ranges: the resolved path and parent slot.
	path      *gom.PathExpression
	parentIdx int
}

type resolved struct {
	q      *Query
	ranges []boundRange
	byVar  map[string]int
	// Per where-predicate resolved paths (anchored at the range var).
	predPaths []*gom.PathExpression
	projPath  *gom.PathExpression // nil for bare-var projection
}

func (e *Engine) resolve(q *Query) (*resolved, error) {
	r := &resolved{q: q, byVar: map[string]int{}}
	for idx, rng := range q.Ranges {
		if _, dup := r.byVar[rng.Var]; dup {
			return nil, fmt.Errorf("query: duplicate range variable %q", rng.Var)
		}
		br := boundRange{r: rng}
		if rng.Dependent == nil {
			id, ok := e.ob.Var(rng.Collection)
			if !ok {
				return nil, fmt.Errorf("query: unknown collection %q", rng.Collection)
			}
			setObj, ok := e.ob.Get(id)
			if !ok {
				return nil, fmt.Errorf("query: collection %q refers to a deleted object", rng.Collection)
			}
			k := setObj.Type().Kind()
			if k != gom.SetType && k != gom.ListType {
				return nil, fmt.Errorf("query: %q is not a collection", rng.Collection)
			}
			br.setOID = id
			br.elemType = setObj.Type().Elem()
		} else {
			parent, ok := r.byVar[rng.Dependent.Var]
			if !ok {
				return nil, fmt.Errorf("query: range %q depends on undefined variable %q", rng.Var, rng.Dependent.Var)
			}
			pt := r.ranges[parent].elemType
			path, err := gom.ResolvePath(pt, rng.Dependent.Attrs...)
			if err != nil {
				return nil, err
			}
			last := path.Step(path.Len())
			if last.Range.Kind() == gom.AtomicType {
				return nil, fmt.Errorf("query: range %q iterates atomic values (%s)", rng.Var, path)
			}
			br.path = path
			br.parentIdx = parent
			br.elemType = last.Range
		}
		r.byVar[rng.Var] = idx
		r.ranges = append(r.ranges, br)
	}
	for _, pred := range q.Where {
		idx, ok := r.byVar[pred.Path.Var]
		if !ok {
			return nil, fmt.Errorf("query: predicate references undefined variable %q", pred.Path.Var)
		}
		if len(pred.Path.Attrs) == 0 {
			return nil, fmt.Errorf("query: predicate %s compares an object variable to a literal", pred.Path)
		}
		p, err := gom.ResolvePath(r.ranges[idx].elemType, pred.Path.Attrs...)
		if err != nil {
			return nil, err
		}
		r.predPaths = append(r.predPaths, p)
	}
	idx, ok := r.byVar[q.Projection.Var]
	if !ok {
		return nil, fmt.Errorf("query: projection references undefined variable %q", q.Projection.Var)
	}
	if len(q.Projection.Attrs) > 0 {
		p, err := gom.ResolvePath(r.ranges[idx].elemType, q.Projection.Attrs...)
		if err != nil {
			return nil, err
		}
		r.projPath = p
	}
	return r, nil
}

// composedPath builds the path from the outermost collection's element
// type through the dependent-range chain of var #idx, extended by extra
// attributes; ok is false when the chain does not bottom out at range 0
// or the composition does not resolve.
func (r *resolved) composedPath(idx int, extra []string) (*gom.PathExpression, bool) {
	var chain []string
	for cur := idx; ; {
		br := r.ranges[cur]
		if br.r.Dependent == nil {
			if cur != 0 {
				return nil, false
			}
			break
		}
		chain = append(br.r.Dependent.Attrs[:len(br.r.Dependent.Attrs):len(br.r.Dependent.Attrs)], chain...)
		cur = br.parentIdx
	}
	chain = append(chain, extra...)
	if len(chain) == 0 {
		return nil, false
	}
	p, err := gom.ResolvePath(r.ranges[0].elemType, chain...)
	if err != nil {
		return nil, false
	}
	return p, true
}

// runStats accumulates one evaluation's measured work. objectReads
// counts the object-base fetches made while walking path expressions
// (one per frontier object — the analog of a record read); usedASR
// records the strategy choice. It is written by the planning phase and
// the evaluation workers, read after they join.
type runStats struct {
	objectReads atomic.Uint64
	usedASR     bool
}

// Run evaluates the query.
func (e *Engine) Run(q *Query) (*Result, error) { return e.run(context.Background(), q, 1, nil) }

// RunCtx is Run honoring ctx, with the outer collection's surviving
// anchors fanned across up to workers goroutines (asr.FanOut). The
// resolution step, the ASR pre-filter and the plan are computed once,
// exactly as in Run; each worker then evaluates the nested loop over
// its anchor chunk into a private result set, and the sets are merged
// and emitted in the same deterministic sorted order Run uses — so the
// Values are the same for every query and worker count (the Plan
// additionally records the fan-out). Cancellation or deadline expiry
// aborts the index pre-filter, every evaluation worker, and the index-
// backed projection probes, returning ctx's error.
func (e *Engine) RunCtx(ctx context.Context, q *Query, workers int) (*Result, error) {
	return e.run(ctx, q, workers, nil)
}

func (e *Engine) run(ctx context.Context, q *Query, workers int, st *runStats) (*Result, error) {
	if st == nil {
		st = &runStats{}
	}
	// Per-request resource accounting: when the context carries a
	// telemetry.Tally (the server scopes one per request), flush this
	// run's object fetches and the index pool's page-access delta into it
	// — on every exit path, so a canceled or failed query still reports
	// what it consumed. The pool counter is process-wide, so the page
	// delta over-attributes when other queries hit the pool concurrently;
	// the trailer documents it as approximate.
	if tally := telemetry.TallyFrom(ctx); tally != nil {
		var pages0 uint64
		if e.mgr != nil {
			pages0 = e.mgr.Pool().Stats().LogicalAccesses
		}
		defer func() {
			tally.AddObjects(st.objectReads.Load())
			if e.mgr != nil {
				tally.AddPages(e.mgr.Pool().Stats().LogicalAccesses - pages0)
			}
		}()
	}
	started := time.Now()
	ctx, root := telemetry.StartSpan(ctx, "query.run")
	defer root.End()
	_, rsp := telemetry.StartSpan(ctx, "query.resolve")
	r, err := e.resolve(q)
	rsp.End()
	if err != nil {
		return nil, err
	}
	if r.ranges[0].r.Dependent != nil {
		return nil, fmt.Errorf("query: first range must iterate a collection")
	}
	setObj, ok := e.ob.Get(r.ranges[0].setOID)
	if !ok {
		return nil, fmt.Errorf("query: collection object deleted")
	}
	anchors := setObj.ElementOIDs()
	var planNotes []string

	// Index pre-filter: a predicate whose anchor chains back to range 0
	// composes into a path from the collection's element type; if the
	// manager holds a usable index over it, a backward query narrows the
	// anchors before the nested-loop evaluation.
	if e.mgr != nil {
		for pi, pred := range q.Where {
			idx := r.byVar[pred.Path.Var]
			composed, ok := r.composedPath(idx, pred.Path.Attrs)
			if !ok {
				continue
			}
			if ix := e.mgr.FindIndex(composed, 0, composed.Len()); ix != nil {
				pctx, psp := telemetry.StartSpan(ctx, "query.prefilter")
				psp.SetAttr("path", composed.String())
				psp.SetAttr("anchors_before", len(anchors))
				sat, err := e.mgr.QueryBackwardCtx(pctx, composed, 0, composed.Len(), 1, q.Where[pi].Literal)
				if err != nil {
					psp.End()
					return nil, err
				}
				keep := map[gom.OID]bool{}
				for _, id := range asr.OIDsOf(sat) {
					keep[id] = true
				}
				var filtered []gom.OID
				for _, a := range anchors {
					if keep[a] {
						filtered = append(filtered, a)
					}
				}
				anchors = filtered
				st.usedASR = true
				psp.SetAttr("anchors_after", len(anchors))
				psp.End()
				planNotes = append(planNotes,
					fmt.Sprintf("predicate %s = %s via ASR on %s (%d/%d anchors remain)",
						pred.Path, gom.ValueString(pred.Literal), composed, len(anchors), setObj.Len()))
			}
		}
	}
	// Index-backed projection: when the projection path composes from the
	// outer collection and an ASR covers it, project each surviving
	// anchor through a forward index query instead of traversal.
	var projIx *asr.Index
	var projComposed *gom.PathExpression
	if e.mgr != nil && r.projPath != nil && r.byVar[q.Projection.Var] == 0 {
		if composed, ok := r.composedPath(0, q.Projection.Attrs); ok {
			if ix := e.mgr.FindIndex(composed, 0, composed.Len()); ix != nil {
				projIx = ix
				projComposed = composed
				st.usedASR = true
				planNotes = append(planNotes,
					fmt.Sprintf("projection %s via ASR on %s", q.Projection, composed))
			}
		}
	}
	if len(planNotes) == 0 {
		planNotes = append(planNotes, "nested-loop traversal (no usable access support relation)")
	}

	// evalAnchors runs the nested-loop evaluation over one chunk of the
	// outer collection's anchors into a private result set; both the
	// sequential path (one chunk: everything) and the parallel path (one
	// chunk per worker) go through it, so they agree by construction.
	evalAnchors := func(chunk []gom.OID) (map[string]gom.Value, error) {
		// Object reads accumulate in a chunk-local counter and flush to
		// the shared stats once per chunk: workers never contend on the
		// atomic inside the traversal loop.
		var reads uint64
		defer func() { st.objectReads.Add(reads) }()
		out := map[string]gom.Value{}
		bindings := make([]gom.OID, len(r.ranges))
		var loop func(depth int) error
		loop = func(depth int) error {
			if depth == len(r.ranges) {
				for pi := range q.Where {
					v := bindings[r.byVar[q.Where[pi].Path.Var]]
					if !e.pathHasValue(&reads, v, r.predPaths[pi], q.Where[pi].Literal) {
						return nil
					}
				}
				projVar := bindings[r.byVar[q.Projection.Var]]
				if r.projPath == nil {
					out[gom.Ref(projVar).String()] = gom.Ref(projVar)
					return nil
				}
				if projIx != nil {
					vals, err := projIx.QueryForwardCtx(ctx, 0, projComposed.Len(), 1, gom.Ref(projVar))
					if err == nil {
						for _, v := range vals {
							out[gom.ValueString(v)] = v
						}
						return nil
					}
					if ctx.Err() != nil {
						return ctx.Err()
					}
					// Fall back below on any other index error — including a
					// quarantined index (asr.ErrQuarantined): traversal reads
					// the object base directly, so the result stays correct.
				}
				for _, v := range e.evalPath(&reads, projVar, r.projPath) {
					out[gom.ValueString(v)] = v
				}
				return nil
			}
			br := r.ranges[depth]
			var members []gom.OID
			if depth == 0 {
				members = chunk
			} else if br.r.Dependent == nil {
				so, ok := e.ob.Get(br.setOID)
				if !ok {
					return fmt.Errorf("query: collection object deleted")
				}
				members = so.ElementOIDs()
			} else {
				for _, v := range e.evalPath(&reads, bindings[br.parentIdx], br.path) {
					if ref, ok := v.(gom.Ref); ok {
						members = append(members, ref.OID())
					}
				}
			}
			for _, id := range members {
				if depth == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				bindings[depth] = id
				if err := loop(depth + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := loop(0); err != nil {
			return nil, err
		}
		return out, nil
	}

	_, xsp := telemetry.StartSpan(ctx, "query.execute")
	xsp.SetAttr("anchors", len(anchors))
	xsp.SetAttr("workers", workers)
	defer xsp.End()
	parts, err := asr.FanOut("query: evaluation", workers, anchors, evalAnchors)
	if err != nil {
		return nil, err
	}
	if len(parts) > 1 {
		planNotes = append(planNotes, fmt.Sprintf("parallel over %d workers", len(parts)))
	}
	out := parts[0]
	for _, part := range parts[1:] {
		for k, v := range part {
			out[k] = v
		}
	}

	xsp.End()

	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res := &Result{Plan: strings.Join(planNotes, "; ")}
	for _, k := range keys {
		res.Values = append(res.Values, out[k])
	}

	strategy, runs, secs := "traversal", telRunsTraversal, telSecsTraversal
	if st.usedASR {
		strategy, runs, secs = "asr", telRunsASR, telSecsASR
	}
	runs.Inc()
	secs.Observe(time.Since(started).Seconds())
	telObjectReads.Add(st.objectReads.Load())
	root.SetAttr("strategy", strategy)
	root.SetAttr("rows", len(res.Values))
	root.SetAttr("object_reads", st.objectReads.Load())
	return res, nil
}

// evalPath traverses a resolved path from one object, returning all
// reachable final values (objects or atomic values). Each frontier
// object fetched from the object base counts one read into reads — the
// record-access unit the cost model's eq. (31) predicts. The counter is
// goroutine-local; callers flush it into runStats when their chunk ends.
func (e *Engine) evalPath(reads *uint64, start gom.OID, path *gom.PathExpression) []gom.Value {
	cur := []gom.Value{gom.Ref(start)}
	var targets []gom.Value
	for s := 1; s <= path.Len(); s++ {
		step := path.Step(s)
		var next []gom.Value
		seen := map[string]bool{}
		for _, v := range cur {
			ref, ok := v.(gom.Ref)
			if !ok {
				continue
			}
			o, ok := e.ob.Get(ref.OID())
			if !ok {
				continue
			}
			*reads++
			_, targets = o.Follow(step, targets[:0])
			for _, t := range targets {
				if k := gom.ValueString(t); !seen[k] {
					seen[k] = true
					next = append(next, t)
				}
			}
		}
		cur = next
	}
	return cur
}

// pathHasValue reports whether any value reachable over path from the
// object equals want (exists semantics over set-valued steps).
func (e *Engine) pathHasValue(reads *uint64, start gom.OID, path *gom.PathExpression, want gom.Value) bool {
	for _, v := range e.evalPath(reads, start, path) {
		if gom.ValuesEqual(v, want) {
			return true
		}
	}
	return false
}
