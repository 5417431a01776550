package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/telemetry"
)

// Engine evaluates parsed queries against an object base in three
// stages: resolve binds the query to the schema, plan decides for every
// where-predicate and for the projection whether it goes through an
// access support relation (eq. 35 — the one place that is decided), and
// run executes that plan: with a non-nil asr.Manager, predicates whose
// composed path expression has a usable relation become backward index
// queries whose answer is the candidate set — the paper's intended use
// of ASRs in query evaluation (§5.3): the first one's result, tested for
// membership in the outer collection, seeds the anchors of the nested
// loop, later ones intersect, and the collection is enumerated only when
// no predicate is routed, so a supported query costs its probe and its
// survivors, not the collection. Every survivor is still re-checked, and
// everything no relation covers is walked by a gom.Walker: each
// predicate where its variable is bound, over all of that range's
// members by Walker.KeepReaching, a block of members per read lock —
// and when no predicate seeds the anchors, the first one on the outer
// variable by Walker.KeepMembers, over the collection in place.
// Explain prices the same plan with the cost model instead of running
// it.
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

// route is eq. (35) decided for one path of a query: through ix when
// the manager holds a usable access support relation over the composed
// path (Q_sup, eqs. 33–34), by object traversal of path otherwise
// (Q_nas, eq. 31).
type route struct {
	role string // "predicate" or "projection"
	at   int    // the range variable's index: the depth that binds it
	// path is anchored at the range variable: what the nested loop walks
	// to re-check a predicate, and to project when ix is nil or fails.
	path *gom.PathExpression
	// composed leads from the outer collection's element type through the
	// dependent-range chain to the same attribute; set only with ix.
	composed *gom.PathExpression
	ix       *asr.Index
}

// plan is a query bound to the schema (resolve) with every routing
// decision taken (Engine.plan): run executes it, Explain prices it,
// ExplainAnalyze does both to one value — so the plan reported is the
// plan run.
type plan struct {
	ranges []boundRange
	setObj *gom.Object // the outer collection
	preds  []route     // one per where-predicate, in query order
	proj   route       // path nil for a bare-variable projection
}

// resolve binds q's ranges and paths to the schema; the routes it
// returns are not yet routed.
func (e *Engine) resolve(q *Query) (*plan, error) {
	r := &plan{}
	byVar := map[string]int{}
	for idx, rng := range q.Ranges {
		if _, dup := byVar[rng.Var]; dup {
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
			parent, ok := byVar[rng.Dependent.Var]
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
		byVar[rng.Var] = idx
		r.ranges = append(r.ranges, br)
	}
	for _, pred := range q.Where {
		idx, ok := byVar[pred.Path.Var]
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
		r.preds = append(r.preds, route{role: "predicate", at: idx, path: p})
	}
	idx, ok := byVar[q.Projection.Var]
	if !ok {
		return nil, fmt.Errorf("query: projection references undefined variable %q", q.Projection.Var)
	}
	r.proj = route{role: "projection", at: idx}
	if len(q.Projection.Attrs) > 0 {
		p, err := gom.ResolvePath(r.ranges[idx].elemType, q.Projection.Attrs...)
		if err != nil {
			return nil, err
		}
		r.proj.path = p
	}
	return r, nil
}

// composedPath builds the path from the outermost collection's element
// type through the dependent-range chain of var #idx, extended by extra
// attributes; ok is false when the chain does not bottom out at range 0
// or the composition does not resolve.
func (r *plan) composedPath(idx int, extra []string) (*gom.PathExpression, bool) {
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

// usesASR reports whether any route goes through an index — the
// "asr" strategy, as opposed to a pure nested-loop "traversal".
func (p *plan) usesASR() bool {
	for _, rt := range p.preds {
		if rt.ix != nil {
			return true
		}
	}
	return p.proj.ix != nil
}

// plan resolves q (under a query.resolve span) and routes each of its
// paths. It is the package's only caller of Manager.FindIndex.
func (e *Engine) plan(ctx context.Context, q *Query) (*plan, error) {
	_, rsp := telemetry.StartSpan(ctx, "query.resolve")
	p, err := e.resolve(q)
	rsp.End()
	if err != nil {
		return nil, err
	}
	if p.ranges[0].r.Dependent != nil {
		return nil, fmt.Errorf("query: first range must iterate a collection")
	}
	setObj, ok := e.ob.Get(p.ranges[0].setOID)
	if !ok {
		return nil, fmt.Errorf("query: collection object deleted")
	}
	p.setObj = setObj
	// via sends a route through an index when the path from range
	// variable #idx composes back to the outer collection and the manager
	// holds a usable index over the whole of it.
	via := func(rt *route, idx int, attrs []string) {
		if e.mgr == nil {
			return
		}
		composed, ok := p.composedPath(idx, attrs)
		if !ok {
			return
		}
		if ix := e.mgr.FindIndex(composed, 0, composed.Len()); ix != nil {
			rt.composed, rt.ix = composed, ix
		}
	}
	// A routed predicate narrows the outer collection by a backward index
	// query before the nested loop re-checks it; one on a dependent
	// variable still prunes, since its composed path starts at the anchor.
	for pi, pred := range q.Where {
		via(&p.preds[pi], p.preds[pi].at, pred.Path.Attrs)
	}
	// A routed projection replaces traversal by a forward index query per
	// surviving anchor, so it must project the anchor variable itself.
	if p.proj.path != nil && p.proj.at == 0 {
		via(&p.proj, 0, q.Projection.Attrs)
	}
	return p, nil
}

// Run evaluates the query.
func (e *Engine) Run(q *Query) (*Result, error) { return e.RunCtx(context.Background(), q, 1) }

// RunCtx is Run honoring ctx: cancellation or deadline expiry aborts the
// index pre-filter, the evaluation and the index-backed projection
// probes, returning ctx's error. The query runs on the caller's
// goroutine; concurrency comes from concurrent callers. workers is
// ignored — it remains for callers written when a query could fan out.
func (e *Engine) RunCtx(ctx context.Context, q *Query, workers int) (*Result, error) {
	res, _, err := e.run(ctx, q, nil)
	return res, err
}

// run executes p, the plan of q — built here, inside the run's span,
// when the caller passes nil — and also returns the number of
// object-base fetches the evaluation made (gom.ObjectBase.Reach's
// count).
func (e *Engine) run(ctx context.Context, q *Query, p *plan) (*Result, uint64, error) {
	var objectReads uint64
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
			tally.AddObjects(objectReads)
			if e.mgr != nil {
				tally.AddPages(e.mgr.Pool().Stats().LogicalAccesses - pages0)
			}
		}()
	}
	started := time.Now()
	ctx, root := telemetry.StartSpan(ctx, "query.run")
	defer root.End()
	if p == nil {
		var err error
		if p, err = e.plan(ctx, q); err != nil {
			return nil, 0, err
		}
	}
	var planNotes []string

	// The candidate set: a supported predicate's answer *is* the set of
	// candidates (§5.3), so the first routed predicate's backward query
	// seeds the anchors with those of its results the outer collection
	// holds, and each later one intersects. The collection itself is read
	// only when no predicate is routed (below).
	var anchors []gom.Value
	seeded := false
	for pi, rt := range p.preds {
		if rt.ix == nil {
			continue
		}
		pred := q.Where[pi]
		pctx, psp := telemetry.StartSpan(ctx, "query.prefilter")
		psp.SetAttr("path", rt.composed.String())
		if seeded {
			psp.SetAttr("anchors_before", len(anchors))
		} else {
			psp.SetAttr("anchors_before", p.setObj.Len())
		}
		sat, err := e.mgr.QueryBackwardCtx(pctx, rt.composed, 0, rt.composed.Len(), 1, pred.Literal)
		if err != nil {
			psp.End()
			return nil, 0, err
		}
		if seeded {
			anchors = keepIn(anchors, sat)
		} else {
			anchors, seeded = membersAmong(p.setObj, sat), true
		}
		psp.SetAttr("anchors_after", len(anchors))
		psp.End()
		planNotes = append(planNotes,
			fmt.Sprintf("predicate %s = %s via ASR on %s (%d/%d anchors remain)",
				pred.Path, gom.ValueString(pred.Literal), rt.composed, len(anchors), p.setObj.Len()))
	}
	// Index-backed projection: each surviving anchor is projected through
	// a forward index query instead of traversal.
	if p.proj.ix != nil {
		planNotes = append(planNotes,
			fmt.Sprintf("projection %s via ASR on %s", q.Projection, p.proj.composed))
	}
	if len(planNotes) == 0 {
		planNotes = append(planNotes, "nested-loop traversal (no usable access support relation)")
	}

	out, reads, err := e.evaluate(ctx, q, p, anchors, seeded)
	objectReads += reads
	if err != nil {
		return nil, 0, err
	}

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
	if p.usesASR() {
		strategy, runs, secs = "asr", telRunsASR, telSecsASR
	}
	runs.Inc()
	secs.Observe(time.Since(started).Seconds())
	telObjectReads.Add(objectReads)
	root.SetAttr("strategy", strategy)
	root.SetAttr("rows", len(res.Values))
	root.SetAttr("object_reads", objectReads)
	return res, objectReads, nil
}

// evaluate runs the nested loop of p, the plan of q, from the outer
// range's anchors — the index-seeded ones when seeded — and returns the
// projected values keyed by their rendering, and the object-base fetches
// it made, also when it fails.
func (e *Engine) evaluate(ctx context.Context, q *Query, p *plan, anchors []gom.Value, seeded bool) (map[string]gom.Value, uint64, error) {
	var reads uint64
	// Every inner range over a collection iterates the same members for
	// every binding of the variables around it: they are resolved once.
	inner := make([][]gom.Value, len(p.ranges))
	for depth, br := range p.ranges {
		if depth == 0 || br.r.Dependent != nil {
			continue
		}
		so, ok := e.ob.Get(br.setOID)
		if !ok {
			return nil, 0, fmt.Errorf("query: collection object deleted")
		}
		inner[depth] = refMembers(so)
	}

	// predsAt[d] lists the where-predicates on range variable d: each is
	// checked where its variable is bound, so a binding that fails one
	// prunes every range nested inside it.
	predsAt := make([][]int, len(p.ranges))
	for pi, rt := range p.preds {
		predsAt[rt.at] = append(predsAt[rt.at], pi)
	}

	// Unseeded, the outer range walks the collection itself: in place,
	// filtered by the first predicate on the outer variable
	// (Walker.KeepMembers), so nothing is copied but the survivors, or
	// copied whole when no predicate narrows it.
	inPlace := !seeded && len(predsAt[0]) > 0
	if !seeded && !inPlace {
		anchors = refMembers(p.setObj)
	}

	_, xsp := telemetry.StartSpan(ctx, "query.execute")
	defer xsp.End()
	if inPlace {
		xsp.SetAttr("anchors", p.setObj.Len())
	} else {
		xsp.SetAttr("anchors", len(anchors))
	}
	// reach walks a path from one bound object: every value reachable
	// over it (objects or atomic values). One Walker serves the whole
	// evaluation, so what reach returns is good until the next reach.
	walker := e.ob.NewWalker()
	var start [1]gom.Value // Reach's variadic argument, one array per run instead of one per call
	reach := func(from gom.Value, path *gom.PathExpression) []gom.Value {
		start[0] = from
		vals, n := walker.Reach(path, 0, path.Len(), start[:]...)
		reads += n
		return vals
	}
	// keep narrows members to the bindings that satisfy the predicates
	// pis, one block walk per predicate, appending into dst (which may be
	// members[:0]).
	keep := func(pis []int, dst, members []gom.Value) ([]gom.Value, error) {
		for _, pi := range pis {
			path := p.preds[pi].path
			kept, n, err := walker.KeepReaching(ctx, dst, members, path, 0, path.Len(), q.Where[pi].Literal)
			reads += n
			if err != nil {
				return nil, err
			}
			members, dst = kept, kept[:0]
		}
		return members, nil
	}
	out := map[string]gom.Value{}
	bindings := make([]gom.Value, len(p.ranges))
	// dependent[d] holds the members of dependent range d under the
	// current binding of its parent, and filtered[d] those of inner
	// collection range d that pass its predicates, each reused from one
	// binding to the next.
	dependent := make([][]gom.Value, len(p.ranges))
	filtered := make([][]gom.Value, len(p.ranges))
	var loop func(depth int) error
	loop = func(depth int) error {
		if depth == len(p.ranges) {
			projVar := bindings[p.proj.at]
			if p.proj.path == nil {
				out[projVar.String()] = projVar
				return nil
			}
			if p.proj.ix != nil {
				vals, err := p.proj.ix.Query(ctx, true, 0, p.proj.composed.Len(), projVar)
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
			for _, v := range reach(projVar, p.proj.path) {
				out[gom.ValueString(v)] = v
			}
			return nil
		}
		br := p.ranges[depth]
		var members []gom.Value
		var err error
		switch {
		case depth == 0 && inPlace:
			pis := predsAt[0]
			path := p.preds[pis[0]].path
			var n uint64
			members, n, err = walker.KeepMembers(ctx, nil, p.setObj, path, 0, path.Len(), q.Where[pis[0]].Literal)
			reads += n
			if err == nil {
				members, err = keep(pis[1:], members[:0], members)
			}
		case depth == 0: // the anchors are the run's own: filter them in place
			members, err = keep(predsAt[0], anchors[:0], anchors)
		case br.r.Dependent != nil:
			members = dependent[depth][:0]
			for _, v := range reach(bindings[br.parentIdx], br.path) {
				if _, ok := v.(gom.Ref); ok {
					members = append(members, v)
				}
			}
			members, err = keep(predsAt[depth], members[:0], members)
			dependent[depth] = members
		case len(predsAt[depth]) > 0: // inner[depth] is shared by every binding: filter into a buffer
			members, err = keep(predsAt[depth], filtered[depth][:0], inner[depth])
			filtered[depth] = members
		default:
			members = inner[depth]
		}
		if err != nil {
			return err
		}
		for _, m := range members {
			if depth == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			bindings[depth] = m
			if err := loop(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop(0); err != nil {
		return nil, reads, err
	}
	return out, reads, nil
}

// refMembers returns the reference elements of a collection object, a
// set's in no particular order: run sorts what it emits.
func refMembers(coll *gom.Object) []gom.Value {
	all := coll.AppendElements(nil)
	refs := all[:0]
	for _, v := range all {
		if _, ok := v.(gom.Ref); ok {
			refs = append(refs, v)
		}
	}
	return refs
}

// membersAmong returns the members of the collection object coll that
// are among vals — distinct values, an index query's answer. A set walks
// the smaller side and probes the larger, so a selective answer costs
// its own length, not the collection's; a list counts a member once per
// occurrence and is filtered as a whole.
func membersAmong(coll *gom.Object, vals []gom.Value) []gom.Value {
	if coll.Type().Kind() == gom.ListType || len(vals) >= coll.Len() {
		return keepIn(refMembers(coll), vals)
	}
	held := vals[:0]
	for _, v := range vals {
		if _, ok := v.(gom.Ref); ok && coll.Contains(v) {
			held = append(held, v)
		}
	}
	return held
}

// keepIn filters anchors in place down to those among vals.
func keepIn(anchors, vals []gom.Value) []gom.Value {
	keep := make(map[gom.Value]struct{}, len(vals))
	for _, v := range vals {
		keep[v] = struct{}{}
	}
	kept := anchors[:0]
	for _, a := range anchors {
		if _, ok := keep[a]; ok {
			kept = append(kept, a)
		}
	}
	return kept
}
