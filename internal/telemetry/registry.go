// Package telemetry is the repository's observability layer: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms — all atomic, safe under -race) plus lightweight span
// tracing (trace.go). The instrumented layers — storage.BufferPool and
// Disk, btree.Tree, asr.Manager/Index and query.Engine — publish into
// the process-wide Default registry, so one WriteTo call exports the
// whole read/write path in Prometheus text format.
//
// The registry is cumulative for the process lifetime (the Prometheus
// convention): the per-component Stats()/ResetStats() snapshots remain
// the tool for scoped measurements, and ExplainAnalyze uses those plus
// a scoped span Capture for per-query attribution. Reset exists for
// test harnesses only.
//
// Metric names may carry a Prometheus label set inline, e.g.
// "query_seconds{strategy=\"asr\"}"; WriteTo groups such series under
// one # TYPE line per base name and emits everything in sorted order,
// so the export is deterministic for a quiescent registry.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets
// (cumulative, Prometheus-style) and tracks their sum. All operations
// are atomic; Observe is wait-free except for the sum's CAS loop.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds; +Inf implicit
	buckets []atomic.Uint64
	sumBits atomic.Uint64
}

// LatencyBuckets is the default bucket layout for durations in seconds:
// 1µs up to 10s in decade-and-half steps.
var LatencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v; the overflow bucket
	// (index len(bounds)) is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry is a named collection of metrics. Get-or-create accessors
// are safe for concurrent use; instruments are cheap to cache in
// package variables so hot paths skip the map lookup.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented package
// publishes into.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. The
// name may embed a label set: `foo_total{kind="bar"}`.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// strictly increasing upper bounds on first use (later calls ignore
// bounds). A nil bounds falls back to LatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric, keeping registrations (and the
// pointers handed out) valid. For test and experiment harnesses; the
// registry is otherwise cumulative.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.sumBits.Store(0)
	}
}

// splitName separates an inline label set from the metric base name.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// series renders base plus merged label pairs (either may be empty).
func series(base, labels, extra string) string {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return base
	}
	return base + "{" + all + "}"
}

func formatFloat(v float64) string {
	if v == math.Inf(1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo exports every metric in the Prometheus text exposition
// format, sorted by series name with one # TYPE line per base name, so
// the output is deterministic when the registry is quiescent.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	type row struct {
		base, kind string
		lines      []string
	}
	r.mu.Lock()
	var rows []row
	for name, c := range r.counters {
		base, labels := splitName(name)
		rows = append(rows, row{base, "counter",
			[]string{fmt.Sprintf("%s %d", series(base, labels, ""), c.Value())}})
	}
	for name, g := range r.gauges {
		base, labels := splitName(name)
		rows = append(rows, row{base, "gauge",
			[]string{fmt.Sprintf("%s %s", series(base, labels, ""), formatFloat(g.Value()))}})
	}
	for name, h := range r.hists {
		base, labels := splitName(name)
		var lines []string
		cum := uint64(0)
		for i, ub := range h.bounds {
			cum += h.buckets[i].Load()
			lines = append(lines, fmt.Sprintf("%s %d",
				series(base+"_bucket", labels, `le="`+formatFloat(ub)+`"`), cum))
		}
		cum += h.buckets[len(h.bounds)].Load()
		lines = append(lines, fmt.Sprintf("%s %d", series(base+"_bucket", labels, `le="+Inf"`), cum))
		lines = append(lines, fmt.Sprintf("%s %s", series(base+"_sum", labels, ""), formatFloat(h.Sum())))
		// The exposition format requires `le="+Inf"` == `_count`: both
		// are the cumulative sum just read, so every scrape is
		// internally consistent under concurrent Observes.
		lines = append(lines, fmt.Sprintf("%s %d", series(base+"_count", labels, ""), cum))
		rows = append(rows, row{base, "histogram", lines})
	}
	r.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool {
		if rows[i].base != rows[j].base {
			return rows[i].base < rows[j].base
		}
		return rows[i].lines[0] < rows[j].lines[0]
	})
	var n int64
	lastType := ""
	for _, rw := range rows {
		if rw.base != lastType {
			k, err := fmt.Fprintf(w, "# TYPE %s %s\n", rw.base, rw.kind)
			n += int64(k)
			if err != nil {
				return n, err
			}
			lastType = rw.base
		}
		for _, line := range rw.lines {
			k, err := fmt.Fprintln(w, line)
			n += int64(k)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}
