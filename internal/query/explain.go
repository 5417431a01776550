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
// analytical cost model (§5): Explain reports the strategy the engine
// would choose and the model's predicted access counts; ExplainAnalyze
// additionally runs the query under scoped telemetry capture and puts
// the measured counts from the very same run next to the predictions,
// so the model's calibration error is a number, not an impression.
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

// Explanation is the static plan report: the strategy the engine's
// routing would pick for each predicate and for the projection, with
// the cost model's predictions.
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

// Explain resolves the query and reports, without running it, which
// predicates and projections the engine's routing would send through an
// access support relation, with the cost model's predicted access
// counts for every route.
func (e *Engine) Explain(q *Query) (*Explanation, error) {
	r, err := e.resolve(q)
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
	x := &Explanation{Query: q.String(), Strategy: "traversal", Anchors: setObj.Len()}

	// anchorsEst tracks the expected surviving outer anchors as routed
	// predicates narrow the collection.
	anchorsEst := float64(x.Anchors)
	for pi, pred := range q.Where {
		idx := r.byVar[pred.Path.Var]
		composed, ok := r.composedPath(idx, pred.Path.Attrs)
		routed := false
		if ok && e.mgr != nil {
			if ix := e.mgr.FindIndex(composed, 0, composed.Len()); ix != nil {
				m, err := e.modelFor(composed, x)
				if err != nil {
					return nil, err
				}
				dec := asr.StepsOf(ix.Path(), ix.Decomposition())
				pages := m.Q(costmodel.Extension(ix.Extension()), costmodel.Backward,
					0, composed.Len(), dec)
				x.Routes = append(x.Routes, PathCost{
					Path:  composed.String(),
					Via:   fmt.Sprintf("asr(%s %s)", ix.Extension(), ix.Decomposition()),
					Role:  "predicate",
					Pages: pages,
				})
				x.PredictedIndexPages += pages
				x.Strategy = "asr"
				routed = true
				// Survivors of an equality prefilter: the expected number
				// of anchors reaching one specific final value (RefK).
				anchorsEst = math.Min(anchorsEst, math.Ceil(m.RefK(0, composed.Len(), 1)))
			}
		}
		// Every predicate — routed or not — is re-checked by the
		// nested-loop evaluation over the surviving anchors, walking the
		// path from each of them (eq. 31 per anchor, in object reads).
		evalPath := r.predPaths[pi]
		pm, err := e.modelFor(evalPath, x)
		if err != nil {
			return nil, err
		}
		reads := anchorsEst * pm.QnasForward(0, evalPath.Len())
		role := "predicate"
		if routed {
			role = "recheck"
		}
		x.Routes = append(x.Routes, PathCost{
			Path:  evalPath.String(),
			Via:   "traversal",
			Role:  role,
			Reads: reads,
		})
		x.PredictedObjectReads += reads
	}
	if r.projPath != nil {
		routed := false
		if e.mgr != nil && r.byVar[q.Projection.Var] == 0 {
			if composed, ok := r.composedPath(0, q.Projection.Attrs); ok {
				if ix := e.mgr.FindIndex(composed, 0, composed.Len()); ix != nil {
					m, err := e.modelFor(composed, x)
					if err != nil {
						return nil, err
					}
					dec := asr.StepsOf(ix.Path(), ix.Decomposition())
					pages := anchorsEst * m.QsupForward(costmodel.Extension(ix.Extension()),
						0, composed.Len(), dec)
					x.Routes = append(x.Routes, PathCost{
						Path:  composed.String(),
						Via:   fmt.Sprintf("asr(%s %s)", ix.Extension(), ix.Decomposition()),
						Role:  "projection",
						Pages: pages,
					})
					x.PredictedIndexPages += pages
					x.Strategy = "asr"
					routed = true
				}
			}
		}
		if !routed {
			pm, err := e.modelFor(r.projPath, x)
			if err != nil {
				return nil, err
			}
			reads := anchorsEst * pm.QnasForward(0, r.projPath.Len())
			x.Routes = append(x.Routes, PathCost{
				Path:  r.projPath.String(),
				Via:   "traversal",
				Role:  "projection",
				Reads: reads,
			})
			x.PredictedObjectReads += reads
		}
	}
	return x, nil
}

// ExplainAnalyze explains the query, then runs it once under scoped
// telemetry capture with cold index caches, and reports predicted
// versus measured access counts from that same run.
//
// Like engine.Engine's measurement harness, the cold-cache protocol
// (DropClean + ResetStats on the index pool) is only meaningful when
// nothing else touches the pool — call it from a single goroutine with
// no concurrent queries in flight.
func (e *Engine) ExplainAnalyze(ctx context.Context, q *Query) (*Analysis, error) {
	exp, err := e.Explain(q)
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
	ctx, capture := telemetry.WithCapture(ctx)
	st := &runStats{}
	started := time.Now()
	res, err := e.run(ctx, q, 1, st)
	elapsed := time.Since(started)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Explanation:       exp,
		Rows:              len(res.Values),
		Elapsed:           elapsed,
		ActualObjectReads: st.objectReads.Load(),
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
