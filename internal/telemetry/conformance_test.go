package telemetry

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseHistogram pulls one histogram's bucket/sum/count samples out of
// an exposition page.
func parseHistogram(t *testing.T, page, base string) (buckets []uint64, count uint64, haveInf bool) {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		switch {
		case strings.HasPrefix(line, base+"_bucket"):
			fields := strings.Fields(line)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			buckets = append(buckets, v)
			if strings.Contains(line, `le="+Inf"`) {
				haveInf = true
			}
		case strings.HasPrefix(line, base+"_count"):
			fields := strings.Fields(line)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count = v
		}
	}
	return buckets, count, haveInf
}

// TestHistogramExpositionConformance: the +Inf bucket is present, equals
// _count, and the bucket series is cumulative (monotone non-decreasing)
// — on a quiescent registry, exactly.
func TestHistogramExpositionConformance(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50, 500} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buckets, count, haveInf := parseHistogram(t, buf.String(), "lat_seconds")
	if !haveInf {
		t.Fatalf("no +Inf bucket in:\n%s", buf.String())
	}
	if len(buckets) != 4 {
		t.Fatalf("got %d bucket lines, want 4 (3 bounds + +Inf)", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("buckets not cumulative: %v", buckets)
		}
	}
	if inf := buckets[len(buckets)-1]; inf != count || count != 5 {
		t.Fatalf("+Inf=%d count=%d, want both 5", inf, count)
	}
	// Values exactly on an upper bound land inside it (le is inclusive).
	h2 := r.Histogram("edge_seconds", []float64{1})
	h2.Observe(1)
	buf.Reset()
	r.WriteTo(&buf)
	if !strings.Contains(buf.String(), `edge_seconds_bucket{le="1"} 1`) {
		t.Fatalf("boundary observation not inclusive:\n%s", buf.String())
	}
}

// TestWriteToUnderConcurrentWrites scrapes the registry while writers
// hammer a histogram and counters. Every scrape must parse, keep the
// bucket series cumulative, and satisfy the `le="+Inf"` == `_count`
// invariant — the conformance property a mid-Observe read of separate
// atomics would otherwise break.
func TestWriteToUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("busy_seconds", []float64{0.001, 0.01, 0.1, 1})
	c := r.Counter(`busy_total{worker="w0"}`)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%2000) / 1000)
				c.Inc()
			}
		}(w)
	}
	for scrape := 0; scrape < 50; scrape++ {
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatalf("scrape %d: %v", scrape, err)
		}
		buckets, count, haveInf := parseHistogram(t, buf.String(), "busy_seconds")
		if !haveInf {
			t.Fatal("scrape lost the +Inf bucket")
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Fatalf("scrape %d: non-cumulative buckets %v", scrape, buckets)
			}
		}
		if inf := buckets[len(buckets)-1]; inf != count {
			t.Fatalf("scrape %d: +Inf bucket %d != _count %d under concurrent writes", scrape, inf, count)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: the emitted count equals the histogram's own count.
	var buf bytes.Buffer
	r.WriteTo(&buf)
	_, count, _ := parseHistogram(t, buf.String(), "busy_seconds")
	if count != h.Count() {
		t.Fatalf("quiescent count %d != histogram count %d", count, h.Count())
	}
	if !strings.Contains(buf.String(), fmt.Sprintf(`busy_total{worker="w0"} %d`, c.Value())) {
		t.Fatalf("labelled counter series missing:\n%s", buf.String())
	}
}
