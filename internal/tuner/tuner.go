// Package tuner implements the paper's envisioned closing of the loop
// (§7): "the cost model is intended to be integrated into our
// object-oriented DBMS in order to verify a given physical database
// design, or even to automate the task of physical database design.
// Thus, for a recorded database usage pattern the system could (semi-)
// automatically adjust the physical database design."
//
// The tuner (a) measures the application-specific parameters of §4.1
// (c_i, d_i, fan_i, shar_i) directly from a live object base
// (asr.Profile, with its estimated object sizes), (b) records the
// executed operation mix through the asr.Manager query hook and a
// gom.Observer for updates, and (c) runs the analytical design sweep to
// recommend — and optionally apply — the cheapest extension and
// decomposition per indexed path.
package tuner

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"asr/internal/asr"
	"asr/internal/costmodel"
	"asr/internal/gom"
)

// Workload accumulates the executed operations per path — the recorded
// usage pattern of §7.
type Workload struct {
	mu      sync.Mutex
	queries map[string]map[costmodel.WeightedQuery]int // path → query shape → count
	updates map[string]map[int]int                     // path → ins position → count
	nQuery  map[string]int
	nUpdate map[string]int
}

// NewWorkload creates an empty recorder.
func NewWorkload() *Workload {
	return &Workload{
		queries: map[string]map[costmodel.WeightedQuery]int{},
		updates: map[string]map[int]int{},
		nQuery:  map[string]int{},
		nUpdate: map[string]int{},
	}
}

// RecordQuery counts one executed query; wire it to asr.Manager.SetHook:
//
//	mgr.SetHook(func(e asr.QueryEvent) { w.RecordQuery(e) })
func (w *Workload) RecordQuery(e asr.QueryEvent) {
	w.mu.Lock()
	defer w.mu.Unlock()
	kind := costmodel.Backward
	if e.Forward {
		kind = costmodel.Forward
	}
	key := costmodel.WeightedQuery{Kind: kind, I: e.I, J: e.J}
	if w.queries[e.Path] == nil {
		w.queries[e.Path] = map[costmodel.WeightedQuery]int{}
	}
	w.queries[e.Path][key]++
	w.nQuery[e.Path]++
}

// RecordUpdate counts one ins_i-shaped update against a path.
func (w *Workload) RecordUpdate(path string, i int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.updates[path] == nil {
		w.updates[path] = map[int]int{}
	}
	w.updates[path][i]++
	w.nUpdate[path]++
}

// Mix derives the §6.4.1 operation mix for a path: normalized query and
// update weights plus the observed update probability.
func (w *Workload) Mix(path string) (costmodel.Mix, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	nq, nu := w.nQuery[path], w.nUpdate[path]
	if nq+nu == 0 {
		return costmodel.Mix{}, fmt.Errorf("tuner: no recorded operations for %s", path)
	}
	mix := costmodel.Mix{PUp: float64(nu) / float64(nq+nu)}
	var qkeys []costmodel.WeightedQuery
	for k := range w.queries[path] {
		qkeys = append(qkeys, k)
	}
	sort.Slice(qkeys, func(a, b int) bool {
		ka, kb := qkeys[a], qkeys[b]
		if ka.I != kb.I {
			return ka.I < kb.I
		}
		if ka.J != kb.J {
			return ka.J < kb.J
		}
		return ka.Kind < kb.Kind
	})
	for _, k := range qkeys {
		k.W = float64(w.queries[path][k]) / float64(nq)
		mix.Queries = append(mix.Queries, k)
	}
	var ukeys []int
	for i := range w.updates[path] {
		ukeys = append(ukeys, i)
	}
	sort.Ints(ukeys)
	for _, i := range ukeys {
		mix.Updates = append(mix.Updates, costmodel.WeightedUpdate{
			W: float64(w.updates[path][i]) / float64(nu), I: i,
		})
	}
	return mix, nil
}

// UpdateRecorder is a gom.Observer that maps object-base updates onto
// ins_i positions of the registered paths and records them in the
// workload — the update half of the usage pattern.
type UpdateRecorder struct {
	workload *Workload
	paths    []*gom.PathExpression
}

// NewUpdateRecorder creates a recorder for the given paths; register it
// with ob.AddObserver.
func NewUpdateRecorder(w *Workload, paths ...*gom.PathExpression) *UpdateRecorder {
	return &UpdateRecorder{workload: w, paths: paths}
}

// AttrAssigned implements gom.Observer.
func (r *UpdateRecorder) AttrAssigned(o *gom.Object, attr string, old, new gom.Value) {
	for _, p := range r.paths {
		for j := 1; j <= p.Len(); j++ {
			st := p.Step(j)
			if st.Attr == attr && o.Type().IsSubtypeOf(st.Domain) {
				r.workload.RecordUpdate(p.String(), j-1)
			}
		}
	}
}

// SetInserted implements gom.Observer.
func (r *UpdateRecorder) SetInserted(set *gom.Object, elem gom.Value) {
	r.setEvent(set)
}

// SetRemoved implements gom.Observer.
func (r *UpdateRecorder) SetRemoved(set *gom.Object, elem gom.Value) {
	r.setEvent(set)
}

func (r *UpdateRecorder) setEvent(set *gom.Object) {
	for _, p := range r.paths {
		for j := 1; j <= p.Len(); j++ {
			st := p.Step(j)
			if st.IsSetOccurrence() && st.Set == set.Type() {
				r.workload.RecordUpdate(p.String(), j-1)
			}
		}
	}
}

// ObjectDeleted implements gom.Observer; deletions are not ins_i-shaped
// and are ignored by the mix (the paper models insertions only).
func (r *UpdateRecorder) ObjectDeleted(o *gom.Object) {}

// Recommendation is the tuner's advice for one path.
type Recommendation struct {
	Path        string
	Current     *costmodel.Design // nil when the path has no index yet
	Best        costmodel.Design
	CurrentCost float64 // expected mix cost of the current design (0 if none)
	BestCost    float64
	NoSupport   float64
	Mix         costmodel.Mix
	Warnings    []string
}

// Improvement returns CurrentCost/BestCost (0 when there is no current
// index).
func (r Recommendation) Improvement() float64 {
	if r.Current == nil || r.BestCost == 0 {
		return 0
	}
	return r.CurrentCost / r.BestCost
}

// String renders a one-line summary.
func (r Recommendation) String() string {
	cur := "none"
	if r.Current != nil {
		cur = r.Current.String()
	}
	return fmt.Sprintf("%s: current=%s best=%s (%.1f → %.1f pages/op, no-support %.1f)",
		r.Path, cur, r.Best.String(), r.CurrentCost, r.BestCost, r.NoSupport)
}

// Tuner ties a manager, a workload recorder, and the cost model
// together.
type Tuner struct {
	ob      *gom.ObjectBase
	manager *asr.Manager
	work    *Workload
	paths   map[string]*gom.PathExpression
}

// New creates a tuner over a manager. Paths must be registered with
// Watch before operations are recorded for them.
func New(ob *gom.ObjectBase, manager *asr.Manager) *Tuner {
	t := &Tuner{
		ob:      ob,
		manager: manager,
		work:    NewWorkload(),
		paths:   map[string]*gom.PathExpression{},
	}
	manager.SetHook(t.work.RecordQuery)
	return t
}

// Watch registers a path for workload recording (queries are captured
// via the manager hook automatically; updates via the returned observer,
// which Watch registers on the base).
func (t *Tuner) Watch(paths ...*gom.PathExpression) {
	for _, p := range paths {
		t.paths[p.String()] = p
	}
	t.ob.AddObserver(NewUpdateRecorder(t.work, paths...))
}

// Recommend evaluates the recorded mix of one path against the measured
// profile and returns the design ranking's head along with the cost of
// the currently installed design.
func (t *Tuner) Recommend(path *gom.PathExpression) (Recommendation, error) {
	mix, err := t.work.Mix(path.String())
	if err != nil {
		return Recommendation{}, err
	}
	profile, err := asr.Profile(t.ob, path, nil)
	if err != nil {
		return Recommendation{}, err
	}
	model, err := costmodel.New(costmodel.DefaultSystem(), profile)
	if err != nil {
		return Recommendation{}, err
	}
	ranked, noSup, err := model.Advise(mix)
	if err != nil {
		return Recommendation{}, err
	}
	rec := Recommendation{
		Path:      path.String(),
		Best:      ranked[0].Design,
		BestCost:  ranked[0].MixCost,
		NoSupport: noSup,
		Mix:       mix,
		Warnings:  model.Warnings,
	}
	if cur := t.currentDesign(path); cur != nil {
		rec.Current = cur
		rec.CurrentCost = model.MixCost(cur.Ext, cur.Dec, mix)
	}
	return rec, nil
}

// currentDesign reads the installed index's design in cost-model
// position space (set columns dropped, §3's simplification).
func (t *Tuner) currentDesign(path *gom.PathExpression) *costmodel.Design {
	for _, ix := range t.manager.Indexes() {
		if ix.Path().String() != path.String() {
			continue
		}
		d := costmodel.Design{
			Ext: ix.Extension(),
			Dec: asr.StepsOf(path, ix.Decomposition()),
		}
		return &d
	}
	return nil
}

// Autotune recommends and applies: for every watched path whose best
// design improves on the current one by at least minGain (e.g. 1.2 for
// 20%), the index is rebuilt to the recommendation. It returns the
// per-path recommendations with the applied ones marked by Improvement()
// ≥ minGain.
func (t *Tuner) Autotune(minGain float64) ([]Recommendation, error) {
	var out []Recommendation
	var names []string
	for name := range t.paths {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := t.paths[name]
		rec, err := t.Recommend(path)
		if err != nil {
			if strings.Contains(err.Error(), "no recorded operations") {
				continue
			}
			return out, err
		}
		out = append(out, rec)
		needsChange := rec.Current == nil || rec.Improvement() >= minGain
		if !needsChange {
			continue
		}
		if rec.Current != nil {
			for _, ix := range t.manager.Indexes() {
				if ix.Path().String() == name {
					if err := t.manager.DropIndex(ix); err != nil {
						return out, err
					}
				}
			}
		}
		if _, err := t.manager.CreateIndex(path,
			rec.Best.Ext, asr.ColumnsOf(path, rec.Best.Dec)); err != nil {
			return out, err
		}
	}
	return out, nil
}
