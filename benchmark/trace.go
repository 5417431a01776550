package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Op identifies the operation of the stream the
// call belongs to; Parent names the span of the same Op and Phase that
// caused it ("" for a top-level call).
type span struct {
	Phase   string `json:"phase"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	phase string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setPhase labels the spans that follow: "load" for the timed run, then
// one phase per replay level.
func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

func (t *tracer) add(name string, op int, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Phase: t.phase, Name: name, Op: op, Parent: parent,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

const traceNote = "spans are recorded by the harness around calls into each layer's public functions; " +
	"the replay phases run the same first operations of the stream once per layer boundary, " +
	"so a layer's self time is its span minus the span one level down for the same op, " +
	"and what no level explains is reported as a residual (server.overhead_us, query.unspanned_us)"

func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Note: traceNote, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
