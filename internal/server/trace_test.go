package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"asr/internal/server/client"
	"asr/internal/server/wire"
	"asr/internal/telemetry"
)

// TestServerGeneratesTrace speaks raw wire frames: a query sent with an
// all-zero trace ID (a client that does not participate in tracing)
// must come back with a server-generated trace ID and a server span ID,
// so the request is traceable on /traces even when the caller is not.
func TestServerGeneratesTrace(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{})

	conn := rawSession(t, s.Addr())
	qf, _ := wire.Marshal(wire.MsgQuery, 2, wire.Query{SQL: `select r.Name from r in OurRobots`})
	if !qf.Trace.IsZero() {
		t.Fatal("test premise broken: Marshal set a trace ID")
	}
	if err := wire.WriteFrame(conn, qf); err != nil {
		t.Fatal(err)
	}
	rf, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Type != wire.MsgResult {
		t.Fatalf("got %v", rf.Type)
	}
	if rf.Trace.IsZero() {
		t.Fatal("server did not generate a trace ID for an untraced request")
	}
	if rf.Span == 0 {
		t.Fatal("response carries no server span ID")
	}
	var res wire.Result
	if err := wire.Unmarshal(rf, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trailer == nil || res.Trailer.TraceID != rf.Trace.String() {
		t.Fatalf("trailer trace mismatch: %+v vs frame %s", res.Trailer, rf.Trace)
	}
}

// TestTrailerOnError requires that failed queries report their resource
// trailer too — a query that dies with a typed error still tells the
// client what it cost.
func TestTrailerOnError(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trace := telemetry.NewTraceID()
	ctx := telemetry.WithTraceID(context.Background(), trace)
	_, err = c.Query(ctx, `select r from r in NoSuchSet`)
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want ServerError, got %v", err)
	}
	if se.Trailer == nil {
		t.Fatal("error response carries no trailer")
	}
	if se.Trailer.TraceID != trace.String() || se.Trailer.BytesIn <= 0 {
		t.Fatalf("error trailer not populated: %+v", *se.Trailer)
	}
}

// TestSlowLog sets the threshold to 1ns so every query is "slow" and
// checks the captured entry: trace ID, SQL, plan, trailer, and the
// per-stage span breakdown including the server root span and the
// engine's execution stages.
func TestSlowLog(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{SlowQueryThreshold: time.Nanosecond})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trace := telemetry.NewTraceID()
	sql := `select r.Name from r in OurRobots where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`
	if _, err := c.Query(telemetry.WithTraceID(context.Background(), trace), sql); err != nil {
		t.Fatal(err)
	}

	entries := s.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-query entries at a 1ns threshold")
	}
	e := entries[0] // newest first
	if e.TraceID != trace.String() {
		t.Fatalf("entry trace %s, want %s", e.TraceID, trace)
	}
	if e.SQL != sql || !strings.Contains(e.Plan, "via ASR") {
		t.Fatalf("entry sql/plan: %q / %q", e.SQL, e.Plan)
	}
	if e.ElapsedUS < 0 || e.Trailer.BytesOut <= 0 {
		t.Fatalf("entry accounting: %+v", e)
	}
	names := map[string]bool{}
	for _, sp := range e.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"server.request", "query.run", "query.execute"} {
		if !names[want] {
			t.Fatalf("slow entry missing span %q (have %v)", want, names)
		}
	}

	// A failed query lands in the slow log with its error code.
	if _, err := c.Query(context.Background(), `select r from r in NoSuchSet`); err == nil {
		t.Fatal("expected query error")
	}
	found := false
	for _, e := range s.SlowQueries() {
		if e.Code == wire.CodeQuery && e.Error != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("failed query not recorded in slow log")
	}
}

// TestAdminPlane probes the observability endpoints end to end:
// /debug/pprof is live, /traces serves the span ring (filterable by
// trace ID, rejecting bad ones), /slowlog serves the slow-query ring as
// JSON, and /readyz reports session/inflight counts in its body.
func TestAdminPlane(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{
		AdminAddr:          "127.0.0.1:0",
		SlowQueryThreshold: time.Nanosecond,
	})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trace := telemetry.NewTraceID()
	if _, err := c.Query(telemetry.WithTraceID(context.Background(), trace),
		`select r.Name from r in OurRobots`); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.AdminAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Profiling plane.
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}

	// Span ring, unfiltered and filtered.
	type tracesDoc struct {
		Spans []struct {
			TraceID    string `json:"trace_id"`
			Name       string `json:"name"`
			DurationUS int64  `json:"duration_us"`
		} `json:"spans"`
		Count int `json:"count"`
	}
	var doc tracesDoc
	code, body := get("/traces")
	if code != 200 {
		t.Fatalf("/traces: %d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if doc.Count == 0 || doc.Count != len(doc.Spans) {
		t.Fatalf("/traces count %d vs %d spans", doc.Count, len(doc.Spans))
	}

	code, body = get("/traces?trace=" + trace.String())
	if code != 200 {
		t.Fatalf("/traces filtered: %d", code)
	}
	doc = tracesDoc{}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count == 0 {
		t.Fatalf("no spans for trace %s", trace)
	}
	sawRoot := false
	for _, sp := range doc.Spans {
		if sp.TraceID != trace.String() {
			t.Fatalf("filter leaked span from trace %s", sp.TraceID)
		}
		if sp.Name == "server.request" {
			sawRoot = true
		}
	}
	if !sawRoot {
		t.Fatal("filtered trace missing the server.request root span")
	}

	if code, _ := get("/traces?trace=nothex"); code != 400 {
		t.Fatalf("bad trace filter: %d, want 400", code)
	}
	if code, _ := get("/traces?limit=bogus"); code != 400 {
		t.Fatalf("bad limit: %d, want 400", code)
	}
	code, body = get("/traces?limit=1")
	doc = tracesDoc{}
	if code != 200 || json.Unmarshal([]byte(body), &doc) != nil || doc.Count > 1 {
		t.Fatalf("/traces?limit=1: %d count=%d", code, doc.Count)
	}

	// Slow-query ring.
	type slowDoc struct {
		ThresholdUS int64            `json:"threshold_us"`
		Entries     []SlowQueryEntry `json:"entries"`
		Count       int              `json:"count"`
	}
	var sd slowDoc
	code, body = get("/slowlog")
	if code != 200 {
		t.Fatalf("/slowlog: %d", code)
	}
	if err := json.Unmarshal([]byte(body), &sd); err != nil {
		t.Fatalf("/slowlog not JSON: %v", err)
	}
	if sd.Count == 0 || len(sd.Entries) != sd.Count {
		t.Fatalf("/slowlog count %d vs %d entries", sd.Count, len(sd.Entries))
	}
	if sd.Entries[0].TraceID == "" || len(sd.Entries[0].Spans) == 0 {
		t.Fatalf("/slowlog entry incomplete: %+v", sd.Entries[0])
	}

	// Readiness body reports load alongside the state.
	code, body = get("/readyz")
	if code != 200 || !strings.HasPrefix(body, "ready") {
		t.Fatalf("/readyz: %d %q", code, body)
	}
	if !strings.Contains(body, "sessions: 1") || !strings.Contains(body, "inflight: 0") {
		t.Fatalf("/readyz body missing load counts: %q", body)
	}

	// The new counters are exported on /metrics and documented.
	_, metrics := get("/metrics")
	for _, series := range []string{
		"server_slow_queries_total", "trace_server_generated_total",
		"trace_spans_recorded_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
}
