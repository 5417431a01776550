package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json at the
// repository root carries the same tables (bench_test.go holds the two
// in lockstep); Bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. "op" is the workload's primary operation: a wire read on
// wire_small, read_large and mixed, a maintained durable update on
// write_durable (README.md has the table).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced pass; layers are
// this repository's packages. A metric that does not apply to a
// workload (wire metrics on write_durable) reads 0 there.
var perLayer = []metricDef{
	// client: the load generator itself — validity of every timed metric.
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.read_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.read_max_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.write_max_us", Unit: "us", Better: "lower"},
	{Name: "client.gen_late_p99_us", Unit: "us", Better: "lower"},
	// wire: frame codec and JSON bodies.
	{Name: "wire.codec_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_req", Unit: "bytes", Better: "lower"},
	{Name: "wire.allocs_per_req", Unit: "count", Better: "lower"},
	// server: loopback, framing, session, admission.
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_us_p99", Unit: "us", Better: "lower"},
	{Name: "server.shed_rate", Unit: "ratio", Better: "lower"},
	{Name: "server.start_ms", Unit: "ms", Better: "lower"},
	// query: parse, resolve, plan, evaluate.
	{Name: "query.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "query.run_us", Unit: "us", Better: "lower"},
	{Name: "query.prefilter_us", Unit: "us", Better: "lower"},
	{Name: "query.execute_us", Unit: "us", Better: "lower"},
	{Name: "query.unspanned_us", Unit: "us", Better: "lower"},
	{Name: "query.index_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.objects_per_read", Unit: "count", Better: "lower"},
	// asr: probes, maintenance, open and build.
	{Name: "asr.probe_us", Unit: "us", Better: "lower"},
	{Name: "asr.rows_scanned_per_probe", Unit: "count", Better: "lower"},
	{Name: "asr.maint_us", Unit: "us", Better: "lower"},
	{Name: "asr.retries", Unit: "count", Better: "lower"},
	{Name: "asr.rollbacks", Unit: "count", Better: "lower"},
	{Name: "asr.writer_interference", Unit: "ratio", Better: "lower"},
	{Name: "asr.openfrom_ms", Unit: "ms", Better: "lower"},
	{Name: "asr.build_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "asr.rows", Unit: "count", Better: "lower"},
	{Name: "asr.heap_bytes_per_row", Unit: "bytes", Better: "lower"},
	// gom: the object base under the indexes.
	{Name: "gom.update_us", Unit: "us", Better: "lower"},
	{Name: "gom.objects", Unit: "count", Better: "lower"},
	// btree: the clustered trees of every partition.
	{Name: "btree.lookup_us", Unit: "us", Better: "lower"},
	{Name: "btree.pages_per_lookup", Unit: "pages", Better: "lower"},
	{Name: "btree.insert_us", Unit: "us", Better: "lower"},
	{Name: "btree.height_max", Unit: "count", Better: "lower"},
	{Name: "btree.keys_per_leaf", Unit: "count", Better: "higher"},
	{Name: "btree.stored_ratio", Unit: "ratio", Better: "lower"},
	{Name: "btree.leaf_pages", Unit: "pages", Better: "lower"},
	// storage.pool: the buffer pool; logical accesses are the paper's cost unit.
	{Name: "storage.pool.logical_per_read", Unit: "pages", Better: "lower"},
	{Name: "storage.pool.logical_per_write", Unit: "pages", Better: "lower"},
	{Name: "storage.pool.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.pool.evictions_per_op", Unit: "pages", Better: "lower"},
	{Name: "storage.pool.writebacks_per_op", Unit: "pages", Better: "lower"},
	{Name: "storage.pool.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.pool.get_miss_us", Unit: "us", Better: "lower"},
	// storage.wal: the write-ahead log, one fsync per commit.
	{Name: "storage.wal.records_per_write", Unit: "count", Better: "lower"},
	{Name: "storage.wal.bytes_per_write", Unit: "bytes", Better: "lower"},
	{Name: "storage.wal.syncs_per_write", Unit: "count", Better: "lower"},
	{Name: "storage.wal.commits_per_sync", Unit: "ratio", Better: "higher"},
	{Name: "storage.wal.commit_us", Unit: "us", Better: "lower"},
	// storage.disk: the page device, checkpoints and recovery.
	{Name: "storage.disk.reads_per_op", Unit: "pages", Better: "lower"},
	{Name: "storage.disk.writes_per_op", Unit: "pages", Better: "lower"},
	{Name: "storage.disk.read_us", Unit: "us", Better: "lower"},
	{Name: "storage.disk.file_mb", Unit: "MiB", Better: "lower"},
	{Name: "storage.disk.bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.checkpoints", Unit: "count", Better: "lower"},
	{Name: "storage.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "dump.load_ms", Unit: "ms", Better: "lower"},
	// costmodel: measured ÷ predicted page accesses, the paper's drift signal.
	{Name: "costmodel.query_ratio", Unit: "ratio", Better: "lower"},
	{Name: "costmodel.maint_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// measured is one emitted metric value.
type measured struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Samples  int     `json:"samples"`
	Spread   float64 `json:"slice_spread"`
}

// report collects one workload pass's metric values by name and renders
// them against the definition table, so every defined metric is emitted
// exactly once and nothing undefined can be.
type report struct {
	workload string
	defs     []metricDef
	values   map[string]measured
}

func newReport(workload string, defs []metricDef) *report {
	return &report{workload: workload, defs: defs, values: map[string]measured{}}
}

// set records a value with its sample count and the relative spread of
// the per-slice values it is the median of (0 when not sliced).
func (r *report) set(name string, value float64, samples int, spread float64) {
	r.values[name] = measured{Value: value, Samples: samples, Spread: spread}
}

// metrics returns every defined metric in table order. Per-layer metrics
// never set read 0; a missing, non-finite or zero end-to-end metric is an
// error, because the regression gate divides by it.
func (r *report) metrics(requireAll bool) ([]measured, error) {
	known := map[string]bool{}
	out := make([]measured, 0, len(r.defs))
	for _, d := range r.defs {
		known[d.Name] = true
		m, ok := r.values[d.Name]
		if requireAll && (!ok || m.Value == 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, m.Value)
		}
		m.Name, m.Workload, m.Unit, m.Better = d.Name, r.workload, d.Unit, d.Better
		out = append(out, m)
	}
	for name := range r.values {
		if !known[name] {
			return nil, fmt.Errorf("%s: metric %s is not in the definition table", r.workload, name)
		}
	}
	return out, nil
}

// median returns the middle value (mean of the middle two for even n).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spreadOf is (max − min) / median of the values: how far the slices of
// one run disagree.
func spreadOf(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / m
}
