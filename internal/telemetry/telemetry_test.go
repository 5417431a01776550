package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x_total") != c {
		t.Error("Counter not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v, want 1.5", g.Value())
	}
	h := r.Histogram("h_seconds", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Errorf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestWriteToFormatAndDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter(`q_total{strategy="asr"}`).Add(3)
	r.Counter(`q_total{strategy="traversal"}`).Add(1)
	r.Gauge("resident_pages").Set(7)
	h := r.Histogram("lat_seconds", []float64{1, 4})
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(8)

	var a, b strings.Builder
	if _, err := r.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("WriteTo not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE q_total counter",
		`q_total{strategy="asr"} 3`,
		`q_total{strategy="traversal"} 1`,
		"# TYPE resident_pages gauge",
		"resident_pages 7",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="4"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 10.5",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTo output missing %q:\n%s", want, out)
		}
	}
	// The TYPE line for a labelled family must appear exactly once.
	if n := strings.Count(out, "# TYPE q_total counter"); n != 1 {
		t.Errorf("TYPE q_total emitted %d times", n)
	}
}

// TestResetZeroesEverySeries is the registry half of the repo-wide
// Stats/ResetStats coverage: every exported sample must read zero after
// Reset, so a new metric cannot dodge the reset path.
func TestResetZeroesEverySeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(9)
	r.Gauge("b").Set(3)
	h := r.Histogram("c_seconds", nil)
	h.Observe(0.25)
	before := r.Snapshot()
	if len(before) != 4 { // a_total, b, c_seconds_count, c_seconds_sum
		t.Fatalf("snapshot has %d series, want 4: %v", len(before), before)
	}
	nonzero := 0
	for _, v := range before {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Fatalf("expected every series nonzero before reset, got %v", before)
	}
	r.Reset()
	for name, v := range r.Snapshot() {
		if v != 0 {
			t.Errorf("after Reset, %s = %v, want 0", name, v)
		}
	}
	// Cached instrument pointers stay valid.
	r.Counter("a_total").Inc()
	if got := r.Snapshot()["a_total"]; got != 1 {
		t.Errorf("counter after reset+inc = %v, want 1", got)
	}
}

// TestRegistryConcurrent exercises every instrument from many
// goroutines; run under -race this is the registry's thread-safety
// proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("n_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{10, 100}).Observe(float64(i))
				if i%100 == 0 {
					var sb strings.Builder
					if _, err := r.WriteTo(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total").Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if got := r.Gauge("g").Value(); got != 4000 {
		t.Errorf("gauge = %v, want 4000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 4000 {
		t.Errorf("histogram count = %d, want 4000", got)
	}
}

func TestSpanParentLinkageAndCapture(t *testing.T) {
	tr := NewTracer(8)
	ctx, cap := WithCapture(context.Background())
	ctx, root := tr.StartSpan(ctx, "root")
	ctx2, child := tr.StartSpan(ctx, "child")
	_ = ctx2
	child.SetAttr("rows", 42)
	child.End()
	root.End()
	root.End() // second End is a no-op

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("tracer retained %d spans, want 2", len(spans))
	}
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Errorf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].ParentID != spans[1].ID {
		t.Errorf("child parent = %d, root id = %d", spans[0].ParentID, spans[1].ID)
	}
	if spans[1].ParentID != 0 {
		t.Errorf("root parent = %d, want 0", spans[1].ParentID)
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != (Attr{"rows", "42"}) {
		t.Errorf("child attrs = %v", spans[0].Attrs)
	}
	got := cap.Spans()
	if len(got) != 2 {
		t.Fatalf("capture has %d spans, want 2", len(got))
	}
}

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		_, s := tr.StartSpan(context.Background(), "s")
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Errorf("spans not oldest-first: ids %v", []uint64{spans[i-1].ID, spans[i].ID})
		}
	}
	if spans[len(spans)-1].ID != 10 {
		t.Errorf("newest span id = %d, want 10", spans[len(spans)-1].ID)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, c := WithCapture(context.Background())
			for i := 0; i < 200; i++ {
				ctx2, s := tr.StartSpan(ctx, "op")
				_, inner := tr.StartSpan(ctx2, "inner")
				inner.End()
				s.End()
			}
			if got := len(c.Spans()); got != 400 {
				t.Errorf("capture has %d spans, want 400", got)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 64 {
		t.Errorf("ring retained %d spans, want 64", got)
	}
}
