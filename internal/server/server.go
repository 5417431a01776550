// Package server is gomd's network front door: it serves the existing
// query engine to many clients over the wire protocol of
// internal/server/wire (length-prefixed binary frames, JSON bodies —
// specified in docs/SERVICE.md).
//
// The layering is deliberately thin. Everything below the wire already
// supports concurrent use — any number of goroutines may run queries
// against one query.Engine / asr.Manager while at most one writer
// mutates the object base — so the server adds only what a network
// boundary needs:
//
//   - session management: one session per TCP connection, registered on
//     Hello and torn down on disconnect, with per-session counters;
//   - per-connection cancellation: every request context descends from
//     its session's context, which is canceled when the connection
//     drops or the client sends MsgCancel — riding the Query*Ctx /
//     RunCtx plumbing the engine already has;
//   - admission control: a max-inflight semaphore; requests beyond the
//     limit are rejected immediately with a typed OVERLOADED error
//     rather than queued (the client owns retry policy);
//   - graceful drain: Shutdown stops accepting connections, rejects new
//     queries with SHUTTING_DOWN, waits for every admitted query to
//     write its response, runs the OnDrain hook (gomd checkpoints the
//     durable store there), and only then closes the sessions — an
//     admitted query is never lost;
//   - observability: server_* counters in the process registry; end-to-
//     end request tracing (every request frame carries a trace ID the
//     response echoes, and the per-request context links the engine's
//     spans under a server.request root span); structured logs via
//     log/slog with trace IDs on request lines; a bounded slow-query
//     log; and an admin HTTP endpoint exposing /metrics (Prometheus
//     text via internal/telemetry), /healthz, /readyz, /traces,
//     /slowlog and /debug/pprof.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asr/internal/asr"
	"asr/internal/query"
	"asr/internal/server/wire"
)

// allErrorCodes is the closed set of wire error codes; telemetry
// registers one error counter per code at init.
var allErrorCodes = wire.Codes

// QueryEngine evaluates parsed queries. *query.Engine satisfies it;
// tests substitute stubs to make cancellation, overload and drain
// schedules deterministic. The server passes workers = 1; an engine
// ignores it (query.Engine.RunCtx runs each query on its caller's
// goroutine).
type QueryEngine interface {
	RunCtx(ctx context.Context, q *query.Query, workers int) (*query.Result, error)
}

// Config parameterizes a Server. The zero value is usable: loopback
// listener on an ephemeral port, no admin endpoint, defaults below.
type Config struct {
	// Addr is the main listener address; empty means "127.0.0.1:0".
	Addr string
	// AdminAddr is the admin HTTP listener (/metrics, /healthz,
	// /readyz); empty disables it.
	AdminAddr string
	// MaxInflight caps concurrently executing queries across all
	// sessions; excess requests fail fast with OVERLOADED. ≤ 0 means
	// 2×GOMAXPROCS.
	MaxInflight int
	// RequestTimeout, when positive, deadlines every query server-side:
	// a query still running when it expires is canceled through the
	// RunCtx plumbing and answered with a typed DEADLINE_EXCEEDED — one
	// slow query cannot pin an inflight slot forever. 0 disables.
	RequestTimeout time.Duration
	// WriteTimeout bounds each response frame write, so a client that
	// stops reading (full receive window) cannot pin a session goroutine
	// on a blocked send — the write fails, the session's queries are
	// canceled, and the connection is dropped. ≤ 0 means 30s.
	WriteTimeout time.Duration
	// IdleTimeout, when positive, arms the connection watchdog: sessions
	// with no frame read, no response written, and no query in flight
	// for longer than this are reaped (connection closed). 0 disables.
	IdleTimeout time.Duration
	// WrapListener, when set, wraps the main listener after binding —
	// the chaos harness injects network faults here
	// (internal/server/chaos); production leaves it nil.
	WrapListener func(net.Listener) net.Listener
	// Name is reported in HelloOK and /metrics; empty means "gomd".
	Name string
	// OnDrain runs during Shutdown after the last admitted query has
	// answered and before sessions close — gomd checkpoints the page
	// file and recycles the WAL here.
	OnDrain func() error
	// Logger receives the server's structured log stream (session
	// lifecycle, drain progress, slow queries — request lines carry
	// trace_id attributes). gomd wires this to its -log-level /
	// -log-format handler. Nil discards all logs.
	Logger *slog.Logger
	// SlowQueryThreshold, when positive, records every query whose total
	// latency (queue wait + execution) reaches it into the bounded
	// slow-query log served at the admin /slowlog endpoint, with the
	// plan, the resource trailer, and the per-stage span breakdown.
	// 0 disables.
	SlowQueryThreshold time.Duration
	// SlowLogCapacity bounds the slow-query ring; ≤ 0 means
	// DefaultSlowLogCapacity (128).
	SlowLogCapacity int
	// OnBackup, when set, enables the admin POST /backup endpoint: it
	// receives the request's destination directory and performs an
	// online backup (gomd wires Database.Backup here). Nil answers the
	// endpoint with 501.
	OnBackup func(dest string) (any, error)
	// HealthCheck, when set, gates /healthz: a non-nil error degrades
	// the endpoint to 503 with the error text (while the process keeps
	// serving). gomd wires the integrity scrubber's unhealed-corruption
	// state here.
	HealthCheck func() error
}

// Server serves one query engine over TCP. Create with New, start with
// Start, stop with Shutdown.
type Server struct {
	cfg    Config
	engine QueryEngine
	mgr    *asr.Manager // optional; enriches MsgStats

	ln      net.Listener
	baseCtx context.Context
	cancel  context.CancelFunc

	// Admission: admitMu serializes the draining check against
	// reqWG.Add so Shutdown's reqWG.Wait can never miss an admitted
	// query (see admit).
	admitMu  sync.Mutex
	sem      chan struct{}
	draining atomic.Bool
	reqWG    sync.WaitGroup // admitted queries, Done after the response is written
	connWG   sync.WaitGroup // session handler goroutines

	mu          sync.Mutex
	sessions    map[uint64]*session
	started     bool
	stopped     bool
	nextSession atomic.Uint64

	nRequests  atomic.Uint64
	nQueries   atomic.Uint64
	nErrors    atomic.Uint64
	nOverloads atomic.Uint64
	inflight   atomic.Int64

	log   *slog.Logger
	slow  *slowLog
	admin *adminServer
}

// New creates a server over engine. mgr may be nil; when set, MsgStats
// responses include its routing counters and /readyz reflects index
// health.
func New(engine QueryEngine, mgr *asr.Manager, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Name == "" {
		cfg.Name = "gomd"
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		engine:   engine,
		mgr:      mgr,
		baseCtx:  ctx,
		cancel:   cancel,
		sem:      make(chan struct{}, cfg.MaxInflight),
		sessions: map[uint64]*session{},
		log:      serverLogger(cfg),
		slow:     newSlowLog(cfg.SlowLogCapacity),
	}
}

// Start binds the listeners and begins accepting connections.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if s.cfg.WrapListener != nil {
		ln = s.cfg.WrapListener(ln)
	}
	s.ln = ln
	if s.cfg.AdminAddr != "" {
		admin, err := newAdminServer(s, s.cfg.AdminAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.admin = admin
	}
	s.started = true
	s.connWG.Add(1)
	go s.acceptLoop()
	if s.cfg.IdleTimeout > 0 {
		s.connWG.Add(1)
		go s.watchdog()
	}
	s.log.Info("server: listening on",
		"addr", ln.Addr().String(), "max_inflight", s.cfg.MaxInflight)
	if addr := s.AdminAddr(); addr != "" {
		s.log.Info("server: admin endpoint on",
			"url", "http://"+addr,
			"endpoints", "/metrics /healthz /readyz /traces /slowlog /debug/pprof")
	}
	return nil
}

// Addr returns the main listener address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// AdminAddr returns the admin listener address, or "".
func (s *Server) AdminAddr() string {
	if s.admin == nil {
		return ""
	}
	return s.admin.Addr()
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain or stop
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// watchdog reaps idle sessions: a connection with no frame read, no
// response written, and no query in flight for longer than IdleTimeout
// is closed, so abandoned or wedged peers cannot accumulate session
// goroutines forever. Runs until the server's base context is
// canceled during Shutdown.
func (s *Server) watchdog() {
	defer s.connWG.Done()
	tick := s.cfg.IdleTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
		s.mu.Lock()
		var reap []*session
		for _, ss := range s.sessions {
			if ss.lastActive.Load() < cutoff && ss.inflightCount() == 0 {
				reap = append(reap, ss)
			}
		}
		s.mu.Unlock()
		for _, ss := range reap {
			telIdleReaps.Inc()
			s.log.Warn("server: reaping idle session",
				"session", ss.id, "idle_timeout", s.cfg.IdleTimeout.String())
			ss.conn.Close() // the reader goroutine tears the session down
		}
	}
}

// admit reserves one inflight slot, returning a release func, or the
// error code to reject with. The draining check and the WaitGroup Add
// happen under admitMu — Shutdown flips draining under the same mutex,
// so every admitted query is either visible to reqWG.Wait or was
// rejected with SHUTTING_DOWN.
//
// release frees the slot and is idempotent: call it when execution
// ends, before the reply is written, so a client holding its answer is
// never refused for the slot that produced it and a slow reader pins no
// admission capacity. The caller separately owes one reqWG.Done after
// the reply is on the wire — that, not the slot, is the drain invariant.
func (s *Server) admit() (release func(), code string) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		telDrainRejects.Inc()
		return nil, wire.CodeShuttingDown
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.nOverloads.Add(1)
		telOverloads.Inc()
		return nil, wire.CodeOverloaded
	}
	s.reqWG.Add(1)
	s.inflight.Add(1)
	telInflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.sem
			s.inflight.Add(-1)
			telInflight.Add(-1)
		})
	}, ""
}

// Shutdown drains the server: stop accepting connections, reject new
// queries with SHUTTING_DOWN, wait for every admitted query to write
// its response, run the OnDrain hook, then close all sessions and the
// admin endpoint. If ctx expires first, in-flight query contexts are
// canceled (they answer CANCELED — still a response, not a loss) and
// the drain completes; the ctx error is returned joined with any hook
// error. Shutdown is idempotent; concurrent calls wait for the first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	first := !s.draining.Load()
	s.draining.Store(true)
	s.admitMu.Unlock()
	if !first {
		// Another Shutdown is running; wait for the handlers to go away.
		s.connWG.Wait()
		return nil
	}
	started := time.Now()
	telDrains.Inc()
	s.log.Info("server: draining",
		"inflight", s.inflight.Load(), "sessions", s.sessionCount())

	if s.ln != nil {
		s.ln.Close()
	}

	done := make(chan struct{})
	go func() { s.reqWG.Wait(); close(done) }()
	var errs []error
	select {
	case <-done:
	case <-ctx.Done():
		errs = append(errs, fmt.Errorf("server: drain deadline: %w", ctx.Err()))
		s.cancel() // cancel in-flight queries; each still writes a CANCELED response
		<-done
	}

	if s.cfg.OnDrain != nil {
		if err := s.cfg.OnDrain(); err != nil {
			telCheckpointErrs.Inc()
			errs = append(errs, fmt.Errorf("server: drain hook: %w", err))
		}
	}

	// Every admitted response is on the wire; now the sessions can go.
	s.mu.Lock()
	s.stopped = true
	for _, ss := range s.sessions {
		ss.conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	s.connWG.Wait()
	if s.admin != nil {
		errs = append(errs, s.admin.Close())
	}
	telDrainSeconds.Observe(time.Since(started).Seconds())
	s.log.Info("server: drained",
		"elapsed", time.Since(started).Round(time.Millisecond).String())
	return errors.Join(errs...)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Stats snapshots the server-level counters — the same numbers a
// MsgStats request returns over the wire.
func (s *Server) Stats() wire.StatsResult {
	st := wire.StatsResult{
		Server:        s.cfg.Name,
		Draining:      s.draining.Load(),
		SessionsOpen:  s.sessionCount(),
		SessionsTotal: s.nextSession.Load(),
		Requests:      s.nRequests.Load(),
		Queries:       s.nQueries.Load(),
		Errors:        s.nErrors.Load(),
		Overloads:     s.nOverloads.Load(),
		Inflight:      int(s.inflight.Load()),
		MaxInflight:   s.cfg.MaxInflight,
	}
	if s.mgr != nil {
		ms := s.mgr.Stats()
		st.ManagerQueries = ms.Queries
		st.ManagerIndexHits = ms.IndexHits
		st.ManagerTraversals = ms.Traversals
		st.ManagerExhaustive = ms.ExhaustiveSearches
		st.ManagerDegraded = ms.DegradedQueries
		st.Indexes = len(ms.Indexes)
	}
	return st
}
