package telemetry

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
)

// TraceID identifies one end-to-end request across process boundaries:
// 16 opaque bytes, generated once at the request's origin (normally the
// client) and echoed on every hop. The zero value means "no trace";
// whoever first notices the absence generates one, so every request is
// traceable even when the caller did not ask. Rendered as 32 lowercase
// hex digits, the form /traces filters on.
type TraceID [16]byte

// IsZero reports whether the ID is absent.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 hex digits ("" for the zero ID, so log
// lines stay clean when tracing context is absent).
func (id TraceID) String() string {
	if id.IsZero() {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// NewTraceID returns a fresh random trace ID (never zero). IDs come
// from math/rand/v2's per-thread ChaCha8 generator — itself seeded from
// the OS entropy pool — so generating one is lock-free and syscall-free
// (a trace ID needs collision resistance across a request population,
// not secrecy; clients stamp one per request on the hot path).
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], rand.Uint64())
		binary.BigEndian.PutUint64(id[8:], rand.Uint64())
	}
	return id
}

// ParseTraceID parses the 32-hex-digit form ("" parses to the zero ID).
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if s == "" {
		return id, nil
	}
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		return id, fmt.Errorf("telemetry: bad trace ID %q", s)
	}
	copy(id[:], b)
	return id, nil
}

const traceKey ctxKey = 100

// WithTraceID scopes a trace ID onto ctx: every span started under the
// returned context records it, which is how wire-level trace context
// links to the in-process span ring (/traces filters on it).
func WithTraceID(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, traceKey, id)
}

// TraceIDFrom returns the trace ID scoped onto ctx (zero when absent).
func TraceIDFrom(ctx context.Context) TraceID {
	id, _ := ctx.Value(traceKey).(TraceID)
	return id
}

// Tally accumulates one request's resource consumption across the
// layers that context reaches — the numbers the wire protocol's
// resource trailer reports. Layers add what they can attribute exactly
// (the query evaluator's object fetches) or by bounded approximation
// (index-pool page accesses observed during the request window); each
// Add* is atomic, so goroutines may share one tally.
type Tally struct {
	pages   atomic.Uint64
	objects atomic.Uint64
}

const tallyKey ctxKey = 101

// WithTally scopes a fresh Tally onto ctx.
func WithTally(ctx context.Context) (context.Context, *Tally) {
	t := &Tally{}
	return context.WithValue(ctx, tallyKey, t), t
}

// TallyFrom returns the Tally scoped onto ctx, or nil. All Tally
// methods are nil-safe, so instrumented layers add unconditionally.
func TallyFrom(ctx context.Context) *Tally {
	t, _ := ctx.Value(tallyKey).(*Tally)
	return t
}

// AddPages records n index/storage page accesses.
func (t *Tally) AddPages(n uint64) {
	if t != nil {
		t.pages.Add(n)
	}
}

// AddObjects records n object-base fetches.
func (t *Tally) AddObjects(n uint64) {
	if t != nil {
		t.objects.Add(n)
	}
}

// Pages returns the accumulated page accesses (0 on nil).
func (t *Tally) Pages() uint64 {
	if t == nil {
		return 0
	}
	return t.pages.Load()
}

// Objects returns the accumulated object fetches (0 on nil).
func (t *Tally) Objects() uint64 {
	if t == nil {
		return 0
	}
	return t.objects.Load()
}
