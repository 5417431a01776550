package telemetry

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// SpanRecord is the immutable record of a finished span.
type SpanRecord struct {
	ID       uint64
	ParentID uint64  // 0 for root spans
	Trace    TraceID // zero when no trace context was scoped onto ctx
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Span is an in-flight traced operation. Create one with StartSpan,
// annotate it with SetAttr, and End it exactly once; the record then
// lands in the tracer's ring and in any Capture scoped onto the
// context. A Span must not be shared between goroutines.
type Span struct {
	tracer  *Tracer
	capture *Capture
	rec     SpanRecord
	ended   bool
}

// ID returns the span's tracer-unique ID (0 on nil) — the per-hop span
// identifier the wire protocol carries, so a response frame points at
// the exact server-side span that produced it.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// SetAttr adds a key/value annotation (values are rendered with %v).
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.ended {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: renderAttr(value)})
}

// renderAttr formats an attribute value, fast-pathing the types the
// hot request path actually passes so span annotation stays off the
// reflection-based fmt machinery.
func renderAttr(value any) string {
	switch v := value.(type) {
	case string:
		return v
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case uint64:
		return strconv.FormatUint(v, 10)
	case uint32:
		return strconv.FormatUint(uint64(v), 10)
	default:
		return fmt.Sprint(value)
	}
}

// End finishes the span, recording its duration. Subsequent calls are
// no-ops.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.Duration = time.Since(s.rec.Start)
	s.tracer.record(s.rec)
	if s.capture != nil {
		s.capture.record(s.rec)
	}
}

// Tracer records finished spans into a bounded in-memory ring: the
// newest spans overwrite the oldest once capacity is reached, so
// tracing is always on without unbounded growth. Safe for concurrent
// use.
type Tracer struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	ring  []SpanRecord
	next  int    // ring index the next record lands in
	total uint64 // records ever written
}

// DefaultTracerCapacity is the ring size of the package tracer.
const DefaultTracerCapacity = 512

// NewTracer creates a tracer retaining the last capacity spans
// (DefaultTracerCapacity when capacity ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{ring: make([]SpanRecord, capacity)}
}

var defaultTracer = NewTracer(DefaultTracerCapacity)

// DefaultTracer returns the process-wide tracer StartSpan records into.
func DefaultTracer() *Tracer { return defaultTracer }

// telSpans counts every span recorded into the default tracer's ring
// (the ring itself is bounded; the counter says how much it has seen).
var telSpans = Default().Counter("trace_spans_recorded_total")

func (t *Tracer) record(rec SpanRecord) {
	if t == defaultTracer {
		telSpans.Inc()
	}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	t.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.total)
	if n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]SpanRecord, 0, n)
	start := (t.next - n + len(t.ring)) % len(t.ring)
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

type ctxKey int

const (
	parentKey ctxKey = iota
	captureKey
)

// StartSpan begins a span on the default tracer, linked to the parent
// span carried by ctx (if any), and returns a derived context carrying
// the new span as parent. The span also lands in the Capture scoped
// onto ctx by WithCapture, which is how ExplainAnalyze attributes spans
// to one query run.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return defaultTracer.StartSpan(ctx, name)
}

// StartSpan is the tracer-explicit form of the package StartSpan.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{
		tracer: t,
		rec: SpanRecord{
			ID:    t.nextID.Add(1),
			Trace: TraceIDFrom(ctx),
			Name:  name,
			Start: time.Now(),
		},
	}
	if parent, ok := ctx.Value(parentKey).(uint64); ok {
		s.rec.ParentID = parent
	}
	if c, ok := ctx.Value(captureKey).(*Capture); ok {
		s.capture = c
	}
	return context.WithValue(ctx, parentKey, s.rec.ID), s
}

// Capture collects every span finished under a context scope —
// StartSpan propagates it through derived contexts — so one query run's
// spans can be reported in isolation from the global ring. Safe for
// concurrent use.
type Capture struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// WithCapture scopes a fresh Capture onto ctx.
func WithCapture(ctx context.Context) (context.Context, *Capture) {
	c := &Capture{}
	return context.WithValue(ctx, captureKey, c), c
}

func (c *Capture) record(rec SpanRecord) {
	c.mu.Lock()
	c.spans = append(c.spans, rec)
	c.mu.Unlock()
}

// Spans returns the captured spans in completion order.
func (c *Capture) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanRecord(nil), c.spans...)
}
