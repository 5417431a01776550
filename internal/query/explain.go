package query

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"asr/internal/asr"
	"asr/internal/costmodel"
	"asr/internal/gom"
	"asr/internal/telemetry"
)

// Explain and ExplainAnalyze connect the query engine to the paper's
// analytical cost model (§5): Explain builds the plan run would execute
// (Engine.plan) and reports the model's predicted access counts for it;
// ExplainAnalyze additionally runs that same plan under scoped telemetry
// capture and puts the measured counts next to the predictions, so the
// model's calibration error is a number, not an impression.
//
// Predictions come in the model's two currencies. Index work is
// predicted in page accesses by the supported-query formulas
// (eqs. 33–35) and measured as cold-cache buffer-pool misses on the
// index pool. Traversal work is predicted by the non-supported formulas
// (eqs. 31) with page-sized objects — making op_i = c_i, so the formula
// counts distinct object fetches — and measured as the evaluator's
// object-base reads.

// PathCost is one routed path's predicted cost.
type PathCost struct {
	Path  string  // the composed path expression
	Via   string  // "asr(<ext> <dec>)" or "traversal"
	Role  string  // "predicate" or "projection"
	Pages float64 // predicted index page accesses (ASR routes)
	Reads float64 // predicted object reads (traversal routes)
}

// Explanation is the static plan report: the route the plan takes for
// each predicate and for the projection, with the cost model's
// predictions.
type Explanation struct {
	Query    string
	Strategy string // "asr" or "traversal"
	Anchors  int    // outer collection size before filtering
	Routes   []PathCost

	// PredictedIndexPages totals the ASR routes' page accesses;
	// PredictedObjectReads totals the traversal routes' object fetches.
	PredictedIndexPages  float64
	PredictedObjectReads float64

	Warnings []string
}

// String renders the explanation as an indented plan.
func (x *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:    %s\n", x.Query)
	fmt.Fprintf(&b, "strategy: %s (%d anchors)\n", x.Strategy, x.Anchors)
	for _, r := range x.Routes {
		fmt.Fprintf(&b, "  %-10s %s via %s", r.Role, r.Path, r.Via)
		if r.Pages > 0 {
			fmt.Fprintf(&b, "  [predicted %.1f index pages]", r.Pages)
		}
		if r.Reads > 0 {
			fmt.Fprintf(&b, "  [predicted %.1f object reads]", r.Reads)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "predicted: %.1f index pages, %.1f object reads\n",
		x.PredictedIndexPages, x.PredictedObjectReads)
	for _, w := range x.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}

// Analysis is Explain plus the measured counts of one actual run.
type Analysis struct {
	Explanation *Explanation
	Rows        int
	Elapsed     time.Duration

	ActualIndexPages  uint64 // cold-cache misses on the manager's index pool
	ActualObjectReads uint64 // object-base fetches during path evaluation

	Spans []telemetry.SpanRecord // the run's span tree, in end order
}

// IndexCalibration returns measured/predicted index pages (0 when the
// plan predicts none).
func (a *Analysis) IndexCalibration() float64 {
	if a.Explanation.PredictedIndexPages <= 0 {
		return 0
	}
	return float64(a.ActualIndexPages) / a.Explanation.PredictedIndexPages
}

// ObjectCalibration returns measured/predicted object reads (0 when the
// plan predicts none).
func (a *Analysis) ObjectCalibration() float64 {
	if a.Explanation.PredictedObjectReads <= 0 {
		return 0
	}
	return float64(a.ActualObjectReads) / a.Explanation.PredictedObjectReads
}

// String renders the predicted-versus-actual report.
func (a *Analysis) String() string {
	var b strings.Builder
	b.WriteString(a.Explanation.String())
	fmt.Fprintf(&b, "rows: %d   elapsed: %s\n", a.Rows, a.Elapsed)
	if a.Explanation.PredictedIndexPages > 0 {
		fmt.Fprintf(&b, "index pages: predicted %.1f, actual %d  (ratio %.2f)\n",
			a.Explanation.PredictedIndexPages, a.ActualIndexPages, a.IndexCalibration())
	}
	if a.Explanation.PredictedObjectReads > 0 {
		fmt.Fprintf(&b, "object reads: predicted %.1f, actual %d  (ratio %.2f)\n",
			a.Explanation.PredictedObjectReads, a.ActualObjectReads, a.ObjectCalibration())
	}
	for _, sp := range a.Spans {
		fmt.Fprintf(&b, "span %-16s %s", sp.Name, sp.Duration.Round(time.Microsecond))
		for _, at := range sp.Attrs {
			fmt.Fprintf(&b, " %s=%s", at.Key, at.Value)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Explain plans the query and reports, without running it, which
// predicates and projections go through an access support relation,
// with the cost model's predicted access counts for every route.
func (e *Engine) Explain(q *Query) (*Explanation, error) {
	p, err := e.plan(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return e.price(q, p)
}

// price puts the cost model's predictions on every route of p.
func (e *Engine) price(q *Query, p *plan) (*Explanation, error) {
	x := &Explanation{Query: q.String(), Strategy: "traversal", Anchors: p.setObj.Len()}
	if p.usesASR() {
		x.Strategy = "asr"
	}
	// anchorsEst tracks the expected surviving outer anchors as routed
	// predicates narrow the collection.
	anchorsEst := float64(x.Anchors)
	for _, rt := range p.preds {
		role := rt.role
		if rt.ix != nil {
			m, err := e.modelFor(rt.composed, x)
			if err != nil {
				return nil, err
			}
			n := rt.composed.Len()
			x.viaASR(rt, m.Q(rt.ix.Extension(), costmodel.Backward, 0, n, rt.steps()))
			// Survivors of an equality prefilter: the expected number
			// of anchors reaching one specific final value (RefK).
			anchorsEst = math.Min(anchorsEst, math.Ceil(m.RefK(0, n, 1)))
			role = "recheck"
		}
		// Every predicate — routed or not — is re-checked by the
		// nested-loop evaluation over the surviving anchors, walking the
		// path from each of them (eq. 31 per anchor, in object reads).
		m, err := e.modelFor(rt.path, x)
		if err != nil {
			return nil, err
		}
		x.byTraversal(rt, role, anchorsEst*m.QnasForward(0, rt.path.Len()))
	}
	if rt := p.proj; rt.ix != nil {
		m, err := e.modelFor(rt.composed, x)
		if err != nil {
			return nil, err
		}
		x.viaASR(rt, anchorsEst*m.QsupForward(rt.ix.Extension(), 0, rt.composed.Len(), rt.steps()))
	} else if rt.path != nil {
		m, err := e.modelFor(rt.path, x)
		if err != nil {
			return nil, err
		}
		x.byTraversal(rt, rt.role, anchorsEst*m.QnasForward(0, rt.path.Len()))
	}
	return x, nil
}

// steps is the routed index's decomposition over path steps, the form
// the cost model's formulas take.
func (rt route) steps() costmodel.Decomposition {
	return asr.StepsOf(rt.ix.Path(), rt.ix.Decomposition())
}

// viaASR records the index side of a routed path at its predicted
// page accesses.
func (x *Explanation) viaASR(rt route, pages float64) {
	x.Routes = append(x.Routes, PathCost{
		Path:  rt.composed.String(),
		Via:   fmt.Sprintf("asr(%s %s)", rt.ix.Extension(), rt.ix.Decomposition()),
		Role:  rt.role,
		Pages: pages,
	})
	x.PredictedIndexPages += pages
}

// byTraversal records a path the nested loop walks at its predicted
// object reads.
func (x *Explanation) byTraversal(rt route, role string, reads float64) {
	x.Routes = append(x.Routes, PathCost{Path: rt.path.String(), Via: "traversal", Role: role, Reads: reads})
	x.PredictedObjectReads += reads
}

// ExplainAnalyze plans the query once, prices that plan, then runs it
// under scoped telemetry capture with cold index caches, and reports
// predicted versus measured access counts — both of the one plan. (The
// captured query.resolve span therefore precedes query.run instead of
// nesting in it.)
//
// The cold-cache protocol (DropClean + ResetStats on the index pool) is
// only meaningful when nothing else touches the pool — call it from a
// single goroutine with no concurrent queries in flight.
func (e *Engine) ExplainAnalyze(ctx context.Context, q *Query) (*Analysis, error) {
	ctx, capture := telemetry.WithCapture(ctx)
	p, err := e.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	exp, err := e.price(q, p)
	if err != nil {
		return nil, err
	}
	if e.mgr != nil {
		pool := e.mgr.Pool()
		if err := pool.DropClean(); err != nil {
			return nil, err
		}
		pool.ResetStats()
	}
	started := time.Now()
	res, reads, err := e.run(ctx, q, p)
	elapsed := time.Since(started)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Explanation:       exp,
		Rows:              len(res.Values),
		Elapsed:           elapsed,
		ActualObjectReads: reads,
		Spans:             capture.Spans(),
	}
	if e.mgr != nil {
		a.ActualIndexPages = e.mgr.Pool().Stats().Misses
	}
	return a, nil
}

// modelFor derives a cost model for the path from the live object base:
// extent sizes, defined-attribute counts, fan-outs and sharing are
// counted, not assumed (asr.Profile). Object sizes are set to the page
// size so the non-supported formulas count object fetches (op_i = c_i);
// the page size is the index pool's when a manager is attached. Model
// warnings are appended to the explanation.
func (e *Engine) modelFor(path *gom.PathExpression, x *Explanation) (*costmodel.Model, error) {
	sys := costmodel.DefaultSystem()
	if e.mgr != nil {
		sys.PageSize = float64(e.mgr.Pool().Disk().PageSize())
	}
	sizes := make([]float64, path.Len()+1)
	for i := range sizes {
		sizes[i] = sys.PageSize
	}
	prof, err := asr.Profile(e.ob, path, sizes)
	if err != nil {
		return nil, err
	}
	m, err := costmodel.New(sys, prof)
	if err != nil {
		return nil, err
	}
	x.Warnings = append(x.Warnings, m.Warnings...)
	return m, nil
}
