package server

import (
	"context"
	"errors"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server/wire"
	"asr/internal/storage"
	"asr/internal/telemetry"
)

// session is the server side of one client connection. The reader
// goroutine (serveConn) owns the read half; query execution runs in
// per-request goroutines whose contexts descend from the session's, so
// a disconnect — or MsgCancel — cancels them through the engine's
// RunCtx plumbing. Responses from any goroutine serialize on writeMu.
type session struct {
	id     uint64
	srv    *Server
	conn   net.Conn
	ctx    context.Context
	cancel context.CancelFunc

	writeMu sync.Mutex

	inflightMu sync.Mutex
	inflight   map[uint32]context.CancelFunc

	// lastActive is the UnixNano of the last frame read or response
	// written; the idle watchdog reaps sessions whose lastActive is
	// stale and whose inflight set is empty.
	lastActive atomic.Int64

	helloed bool // reader-goroutine only

	nRequests atomic.Uint64
	nQueries  atomic.Uint64
	nErrors   atomic.Uint64
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	ctx, cancel := context.WithCancel(s.baseCtx)
	ss := &session{
		id:       s.nextSession.Add(1),
		srv:      s,
		conn:     conn,
		ctx:      ctx,
		cancel:   cancel,
		inflight: map[uint32]context.CancelFunc{},
	}
	ss.touch()
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		cancel()
		conn.Close()
		return
	}
	s.sessions[ss.id] = ss
	s.mu.Unlock()
	telSessions.Inc()
	telSessionsOpen.Add(1)
	s.log.Debug("server: session opened",
		"session", ss.id, "remote", conn.RemoteAddr().String())
	defer func() {
		s.mu.Lock()
		delete(s.sessions, ss.id)
		s.mu.Unlock()
		telSessionsOpen.Add(-1)
		cancel() // cancels every in-flight query of this connection
		conn.Close()
		s.log.Debug("server: session closed",
			"session", ss.id,
			"requests", ss.nRequests.Load(), "queries", ss.nQueries.Load(),
			"errors", ss.nErrors.Load())
	}()

	for {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The stream cannot be resynchronized after a bad length
				// prefix; tell the client why before hanging up (request
				// ID 0 marks a connection-level error).
				ss.replyError(wire.Frame{}, wire.CodeProtocol, err.Error())
			}
			return
		}
		ss.touch()
		telBytesRead.Add(uint64(wire.HeaderSize + len(f.Payload)))
		s.nRequests.Add(1)
		ss.nRequests.Add(1)
		requestCounter(f.Type.String()).Inc()

		// Trace context: the response echoes the request's trace ID, so a
		// request that arrived untraced gets a server-generated ID here —
		// every response carries a non-zero trace (except cancel, which
		// has no response). The client's hop span is stashed for the
		// request's root-span attrs; response frames carry the server's
		// span instead (set by handleQuery; zero on span-less responses).
		clientSpan := f.Span
		f.Span = 0
		if f.Trace.IsZero() && f.Type != wire.MsgCancel {
			f.Trace = telemetry.NewTraceID()
			telTraceGenerated.Inc()
		}

		if !ss.helloed && f.Type != wire.MsgHello {
			ss.replyError(f, wire.CodeProtocol, "first message must be hello")
			return
		}
		switch f.Type {
		case wire.MsgHello:
			ss.handleHello(f)
		case wire.MsgQuery:
			ss.handleQuery(f, clientSpan)
		case wire.MsgCancel:
			// Cancels an in-flight request; the canceled request itself
			// answers with CANCELED, the cancel frame has no response.
			ss.inflightMu.Lock()
			if cancelReq, ok := ss.inflight[f.ReqID]; ok {
				cancelReq()
			}
			ss.inflightMu.Unlock()
		default:
			ss.replyError(f, wire.CodeBadRequest, "unexpected message type "+f.Type.String())
		}
	}
}

func (ss *session) handleHello(f wire.Frame) {
	var h wire.Hello
	if err := wire.Unmarshal(f, &h); err != nil {
		ss.replyError(f, wire.CodeBadRequest, err.Error())
		return
	}
	if h.Proto != wire.ProtoVersion {
		ss.replyError(f, wire.CodeProtocol,
			"protocol version mismatch: client "+itoa(h.Proto)+", server "+itoa(wire.ProtoVersion))
		return
	}
	ss.helloed = true
	ss.reply(wire.MsgHelloOK, f, wire.HelloOK{
		Proto:   wire.ProtoVersion,
		Server:  ss.srv.cfg.Name,
		Session: ss.id,
	})
}

func (ss *session) handleQuery(f wire.Frame, clientSpan uint64) {
	received := time.Now()
	var req wire.Query
	if err := wire.Unmarshal(f, &req); err != nil {
		ss.replyError(f, wire.CodeBadRequest, err.Error())
		return
	}
	srv := ss.srv
	release, code := srv.admit()
	if code != "" {
		ss.replyError(f, code, admissionMessage(code, srv.cfg.MaxInflight))
		return
	}
	// The per-request deadline rides the same context chain as
	// cancellation: only this timer produces DeadlineExceeded on qctx
	// (session/drain cancellation produces Canceled), which is how the
	// error mapping below tells the two apart.
	var qctx context.Context
	var qcancel context.CancelFunc
	if d := srv.cfg.RequestTimeout; d > 0 {
		qctx, qcancel = context.WithTimeout(ss.ctx, d)
	} else {
		qctx, qcancel = context.WithCancel(ss.ctx)
	}
	// The request context carries the full tracing kit: the wire trace ID
	// (so every engine span links to it), a resource tally the engine
	// flushes its object/page counts into, and — only when the slow log
	// is armed — a span capture scoped to this one request (its
	// per-stage breakdown; pure overhead otherwise).
	qctx = telemetry.WithTraceID(qctx, f.Trace)
	qctx, tally := telemetry.WithTally(qctx)
	var capture *telemetry.Capture
	if srv.cfg.SlowQueryThreshold > 0 {
		qctx, capture = telemetry.WithCapture(qctx)
	}
	ss.inflightMu.Lock()
	if _, dup := ss.inflight[f.ReqID]; dup {
		ss.inflightMu.Unlock()
		qcancel()
		release()
		ss.replyError(f, wire.CodeBadRequest, "request ID already in flight")
		srv.reqWG.Done()
		return
	}
	ss.inflight[f.ReqID] = qcancel
	ss.inflightMu.Unlock()
	srv.nQueries.Add(1)
	ss.nQueries.Add(1)

	go func() {
		// The server-side root span for this request. Its ID is the span
		// the response frame carries, so a response points at the exact
		// span subtree in /traces that produced it.
		qctx, root := telemetry.StartSpan(qctx, "server.request")
		root.SetAttr("session", ss.id)
		root.SetAttr("req", f.ReqID)
		if clientSpan != 0 {
			root.SetAttr("client_span", clientSpan)
		}
		f.Span = root.ID() // goroutine-local copy; reply echoes it

		defer func() {
			if r := recover(); r != nil {
				ss.replyError(f, wire.CodeInternal, "query handler panicked")
				srv.log.Error("server: query handler panicked",
					"session", ss.id, "req", f.ReqID,
					"trace_id", f.Trace.String(), "panic", r)
			}
			ss.inflightMu.Lock()
			delete(ss.inflight, f.ReqID)
			ss.inflightMu.Unlock()
			qcancel()
			release() // no-op unless the handler panicked before finish
			// The response (written above) precedes Done: once reqWG
			// drains, every admitted answer is on the wire.
			srv.reqWG.Done()
		}()

		// Queue wait: frame receipt to execution start (admission plus
		// goroutine scheduling — admission itself never blocks, so this
		// is scheduling pressure).
		started := time.Now()
		trailer := &wire.Trailer{
			TraceID: f.Trace.String(),
			QueueUS: started.Sub(received).Microseconds(),
			BytesIn: wire.HeaderSize + len(f.Payload),
		}
		finish := func(plan, code, errMsg string) {
			release() // execution is over; the write below holds no slot
			trailer.ExecUS = time.Since(started).Microseconds()
			trailer.Pages = tally.Pages()
			trailer.Objects = tally.Objects()
			root.SetAttr("queue_us", trailer.QueueUS)
			if code != "" {
				root.SetAttr("error", code)
			}
			root.End()
			srv.noteSlow(ss, f, req.SQL, plan, code, errMsg,
				trailer, capture, time.Since(received))
		}

		q, err := query.Parse(req.SQL)
		if err != nil {
			finish("", wire.CodeParse, err.Error())
			ss.replyErrorT(f, wire.CodeParse, err.Error(), trailer)
			return
		}
		res, err := srv.engine.RunCtx(qctx, q, 1)
		telQuerySeconds.Observe(time.Since(started).Seconds())
		if err != nil {
			code := queryErrorCode(qctx, err)
			finish("", code, err.Error())
			ss.replyErrorT(f, code, err.Error(), trailer)
			return
		}
		vals := renderValues(res)
		for _, v := range vals {
			trailer.BytesOut += len(v)
		}
		trailer.BytesOut += len(res.Plan)
		root.SetAttr("rows", len(vals))
		finish(res.Plan, "", "")
		ss.reply(wire.MsgResult, f, wire.Result{Values: vals, Plan: res.Plan, Trailer: trailer})
	}()
}

// queryErrorCode maps an engine failure to its wire code. The mapping
// is exact, not best-effort: the per-request timer is the only source
// of DeadlineExceeded on qctx, so DEADLINE_EXCEEDED never masquerades
// as CANCELED; and a storage fault surfacing mid-query (the -chaos
// serving path, or a genuinely sick disk) is the server's problem, not
// the query's — INTERNAL, never QUERY.
func queryErrorCode(qctx context.Context, err error) string {
	switch {
	case errors.Is(qctx.Err(), context.DeadlineExceeded):
		telDeadlineExceeded.Inc()
		return wire.CodeDeadlineExceeded
	case qctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return wire.CodeCanceled
	case isStorageFault(err):
		return wire.CodeInternal
	default:
		return wire.CodeQuery
	}
}

// isStorageFault recognizes failures originating below the engine — a
// faulted device read, a checksum mismatch, a simulated crash, a buffer
// pool shard with every frame pinned — all transient or operational
// conditions a client should see as INTERNAL (report / retry policy),
// not as a defect in its query.
func isStorageFault(err error) bool {
	return errors.Is(err, storage.ErrInjectedFault) ||
		errors.Is(err, storage.ErrCorruptPage) ||
		errors.Is(err, storage.ErrCrashed) ||
		errors.Is(err, storage.ErrPoolExhausted)
}

func admissionMessage(code string, maxInflight int) string {
	switch code {
	case wire.CodeOverloaded:
		return "server at max inflight (" + itoa(maxInflight) + "); retry later"
	case wire.CodeShuttingDown:
		return "server is draining"
	default:
		return code
	}
}

// reply answers the request frame req: the response echoes req's
// request ID and trace ID, and carries req.Span as its span field —
// handleQuery sets that to its server-side root span ID before
// replying; span-less responses (hello_ok) carry zero.
func (ss *session) reply(t wire.MsgType, req wire.Frame, body any) {
	f, err := wire.Marshal(t, req.ReqID, body)
	if err != nil {
		// Encoding failed (e.g. a result larger than MaxPayload): the
		// request still gets a response, just a typed error.
		if t != wire.MsgError {
			ss.replyError(req, wire.CodeInternal, "response encoding failed: "+err.Error())
		} else {
			ss.srv.log.Error("server: dropping unencodable error frame",
				"session", ss.id, "trace_id", req.Trace.String(), "err", err.Error())
		}
		return
	}
	f.Trace = req.Trace
	f.Span = req.Span
	ss.writeFrame(f)
}

func (ss *session) replyError(req wire.Frame, code, msg string) {
	ss.replyErrorT(req, code, msg, nil)
}

// replyErrorT is replyError with a resource trailer — query failures
// report what they consumed, just like results do.
func (ss *session) replyErrorT(req wire.Frame, code, msg string, tr *wire.Trailer) {
	ss.srv.nErrors.Add(1)
	ss.nErrors.Add(1)
	errorCounter(code).Inc()
	ss.reply(wire.MsgError, req, wire.ErrorBody{Code: code, Message: msg, Trailer: tr})
}

func (ss *session) writeFrame(f wire.Frame) {
	ss.writeMu.Lock()
	defer ss.writeMu.Unlock()
	// The write deadline is the slow-reader guard: a client that stops
	// draining its socket blocks this write only until the deadline,
	// then the session is torn down — it cannot pin the writer (and
	// with it, drain) forever.
	ss.conn.SetWriteDeadline(time.Now().Add(ss.srv.cfg.WriteTimeout))
	if err := wire.WriteFrame(ss.conn, f); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			telWriteTimeouts.Inc()
			ss.srv.log.Warn("server: response write timed out, dropping connection",
				"session", ss.id, "trace_id", f.Trace.String(),
				"write_timeout", ss.srv.cfg.WriteTimeout.String())
		}
		// The connection is gone (or judged dead); stop any queries
		// still running for it and unblock the reader.
		ss.cancel()
		ss.conn.Close()
		return
	}
	ss.conn.SetWriteDeadline(time.Time{})
	ss.touch()
	telBytesWritten.Add(uint64(wire.HeaderSize + len(f.Payload)))
}

// touch stamps the session as active now.
func (ss *session) touch() { ss.lastActive.Store(time.Now().UnixNano()) }

// inflightCount reports how many of this session's requests are
// currently executing.
func (ss *session) inflightCount() int {
	ss.inflightMu.Lock()
	defer ss.inflightMu.Unlock()
	return len(ss.inflight)
}

func itoa(n int) string { return strconv.Itoa(n) }

// renderValues renders a result's values with gom.ValueString, in the
// engine's deterministic sorted order — the exact bytes a client
// receives, so in-process runs rendered the same way compare
// byte-identically with server answers.
func renderValues(res *query.Result) []string {
	vals := make([]string, len(res.Values))
	for i, v := range res.Values {
		vals[i] = gom.ValueString(v)
	}
	return vals
}
