package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the program's
// own workload and metric tables in lockstep: the file is what the
// regression gate reads, the tables are what the program emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %q, want %q", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %q, want %q", b.Paths, want)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := b.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, sp.name, sp.why)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", sp.name, len(sp.why))
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", b.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmokeSuite runs every workload, untraced and traced, on scale-4
// fixtures and checks that each emits exactly the metrics the tables
// define — every one once, with its unit and a finite value, none
// besides — verifies its outputs, and leaves a trace file.
func TestSmokeSuite(t *testing.T) {
	out := t.TempDir()
	var buf bytes.Buffer
	all, ok, err := runSuite(&buf, options{seed: 1, seconds: 0.5, out: out}, true)
	if err != nil {
		t.Fatalf("suite: %v\n%s", err, buf.String())
	}
	if !ok {
		t.Fatalf("suite reported wrong or failed operations:\n%s", buf.String())
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	count := map[string]int{}
	for _, m := range all {
		count[m.Workload+"/"+m.Name]++
		if unit, known := units[m.Name]; !known {
			t.Errorf("%s emits %s, which BENCHMARK.json does not define", m.Workload, m.Name)
		} else if m.Unit != unit {
			t.Errorf("%s/%s has unit %q, want %q", m.Workload, m.Name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s/%s = %v", m.Workload, m.Name, m.Value)
		}
	}
	for _, sp := range specs {
		for name := range units {
			if n := count[sp.name+"/"+name]; n != 1 {
				t.Errorf("%s emits %s %d times, want once", sp.name, name, n)
			}
		}
		for _, d := range endToEnd {
			if lookup(all, sp.name, d.Name) <= 0 {
				t.Errorf("%s/%s = %v, end-to-end metrics must be positive", sp.name, d.Name, lookup(all, sp.name, d.Name))
			}
		}
		if _, err := os.Stat(filepath.Join(out, sp.name+".trace.json")); err != nil {
			t.Errorf("no trace file for %s: %v", sp.name, err)
		}
	}
	// The layers a workload does not use report no work.
	for _, name := range []string{"wire.bytes_per_req", "query.run_us", "client.read_p50_us"} {
		if v := lookup(all, "write_durable", name); v != 0 {
			t.Errorf("write_durable/%s = %v, want 0: the workload sends no reads", name, v)
		}
	}
	if v := lookup(all, "wire_small", "client.write_p50_us"); v != 0 {
		t.Errorf("wire_small/client.write_p50_us = %v, want 0: the workload sends no writes", v)
	}
	if entries, _ := filepath.Glob(filepath.Join(out, "fixture-*")); len(entries) > 0 {
		t.Errorf("scratch fixtures left behind: %v", entries)
	}
}

// streamText renders the first n reads and n updates a seed generates.
func streamText(t *testing.T, seed int64, n int) string {
	t.Helper()
	sp, _ := specByName("mixed")
	sp = sp.smoke()
	fx, err := buildFixture(sp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	work, err := fx.clone("work")
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := fx.open(work)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	qs := buildQuerySet(sp, d, seed)
	rs := newReadStream(sp, qs, seed, 0)
	ws := newWriteStream(d.ob, d.levels, seed)
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, qs.ops[rs.next()].sql)
		fmt.Fprintln(&b, ws.next())
	}
	return b.String()
}

// TestStreamsComeFromTheSeed: the same seed gives byte-identical
// operation streams, another seed gives different ones.
func TestStreamsComeFromTheSeed(t *testing.T) {
	a, b, c := streamText(t, 7, 500), streamText(t, 7, 500), streamText(t, 8, 500)
	if a != b {
		t.Error("two generations from seed 7 differ")
	}
	if a == c {
		t.Error("seeds 7 and 8 generate the same streams")
	}
}

// TestUpdateStreamAlwaysApplies applies a long update stream and checks
// the property the workloads rely on: every operation changes the base
// and none fails.
func TestUpdateStreamAlwaysApplies(t *testing.T) {
	sp, _ := specByName("write_durable")
	sp = sp.smoke()
	fx, err := buildFixture(sp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ob, err := fx.loadPlain()
	if err != nil {
		t.Fatal(err)
	}
	d := &db{ob: ob}
	if err := d.bind(); err != nil {
		t.Fatal(err)
	}
	ws := newWriteStream(ob, d.levels, 3)
	for i := 0; i < 5000; i++ {
		op := ws.next()
		set, _ := ob.Get(op.obj)
		before := set.Len() // 0 for a tuple object
		if err := op.apply(ob); err != nil {
			t.Fatalf("update %d (%s): %v", i, op, err)
		}
		switch op.kind {
		case writeSetInsert:
			if set.Len() != before+1 {
				t.Fatalf("update %d (%s) inserted an element already present", i, op)
			}
		case writeSetRemove:
			if set.Len() != before-1 {
				t.Fatalf("update %d (%s) removed an absent element", i, op)
			}
		}
	}
}

// TestHistAgreesWithSortedSamples compares the bucketed recorder with a
// sorted-sample oracle: p50 and p99 within one bucket (1/64 of the value).
func TestHistAgreesWithSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 1000, 100000} {
		var h hist
		samples := make([]float64, n)
		for i := range samples {
			d := time.Duration(math.Exp(rng.NormFloat64()*1.5+11)) + 1 // log-normal around 60 µs, long tail
			h.record(d)
			samples[i] = float64(d)
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.5, 0.99} {
			exact := samples[min(int(math.Ceil(q*float64(n)))-1, n-1)]
			got := h.quantile(q)
			if math.Abs(got-exact) > exact/64+1 {
				t.Errorf("n=%d q=%v: recorder %v, sorted samples %v", n, q, got, exact)
			}
		}
		if h.n != uint64(n) || float64(h.max) != samples[n-1] {
			t.Errorf("n=%d: recorder holds %d samples max %d, want %d max %v", n, h.n, h.max, n, samples[n-1])
		}
	}
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 12345} {
		if lo, next := bucketLow(bucketOf(v)), bucketLow(bucketOf(v)+1); v < lo || v >= next {
			t.Errorf("value %d filed in bucket [%d, %d)", v, lo, next)
		}
	}
}
