package server

import "asr/internal/telemetry"

// Registry instruments for the network layer, following the repo's
// convention: process-cumulative counters in the Default registry, with
// the scoped per-session numbers available via the Server.Stats
// snapshot. The admin /metrics endpoint
// exports these alongside every other layer's series, so one scrape
// covers the full stack: server → query → asr → btree → storage.
var (
	telSessions     = telemetry.Default().Counter("server_sessions_total")
	telSessionsOpen = telemetry.Default().Gauge("server_sessions_open")

	telRequests = map[string]*telemetry.Counter{
		"hello":  telemetry.Default().Counter(`server_requests_total{type="hello"}`),
		"query":  telemetry.Default().Counter(`server_requests_total{type="query"}`),
		"cancel": telemetry.Default().Counter(`server_requests_total{type="cancel"}`),
		"other":  telemetry.Default().Counter(`server_requests_total{type="other"}`),
	}

	telErrors = map[string]*telemetry.Counter{} // per error code, filled by init

	telInflight         = telemetry.Default().Gauge("server_inflight_queries")
	telOverloads        = telemetry.Default().Counter("server_overloads_total")
	telDeadlineExceeded = telemetry.Default().Counter("server_deadline_exceeded_total")
	telWriteTimeouts    = telemetry.Default().Counter("server_write_timeouts_total")
	telIdleReaps        = telemetry.Default().Counter("server_idle_reaped_total")
	telDrainRejects     = telemetry.Default().Counter("server_drain_rejects_total")
	telQuerySeconds     = telemetry.Default().Histogram("server_query_seconds", telemetry.LatencyBuckets)
	telBytesRead        = telemetry.Default().Counter("server_bytes_read_total")
	telBytesWritten     = telemetry.Default().Counter("server_bytes_written_total")
	telDrains           = telemetry.Default().Counter("server_drains_total")
	telDrainSeconds     = telemetry.Default().Histogram("server_drain_seconds", telemetry.LatencyBuckets)
	telAdminScrapes     = telemetry.Default().Counter("server_metrics_scrapes_total")
	telCheckpointErrs   = telemetry.Default().Counter("server_drain_checkpoint_errors_total")
	telSlowQueries      = telemetry.Default().Counter("server_slow_queries_total")
	telAdminBackups     = telemetry.Default().Counter("server_backup_requests_total")
	telTraceGenerated   = telemetry.Default().Counter("trace_server_generated_total")
)

func init() {
	for _, code := range allErrorCodes {
		telErrors[code] = telemetry.Default().Counter(`server_request_errors_total{code="` + code + `"}`)
	}
}

func requestCounter(kind string) *telemetry.Counter {
	if c, ok := telRequests[kind]; ok {
		return c
	}
	return telRequests["other"]
}

func errorCounter(code string) *telemetry.Counter {
	if c, ok := telErrors[code]; ok {
		return c
	}
	return telErrors["INTERNAL"]
}
