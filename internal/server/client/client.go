// Package client is the Go client for gomd, the object-base server
// (internal/server, protocol in internal/server/wire and
// docs/SERVICE.md). A Client owns one TCP connection and is safe for
// concurrent use: requests carry IDs, so any number of goroutines may
// have queries in flight on the same connection and responses are
// matched as they arrive.
//
//	c, err := client.Dial(addr)
//	defer c.Close()
//	res, err := c.Query(ctx, `select r.Name from r in OurRobots`)
//
// Server failures surface as *ServerError values wrapping one typed
// sentinel per wire error code (ErrOverloaded, ErrShuttingDown, …), so
// callers branch with errors.Is. Canceling the context of an in-flight
// Query sends MsgCancel and returns once the server acknowledges with
// its CANCELED response — the protocol guarantees every admitted query
// a response, so cancellation does not leak pending state.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asr/internal/server/wire"
	"asr/internal/telemetry"
)

// Sentinel errors, one per wire error code (wire.Codes). ServerError
// wraps exactly one of these; TestErrorMapping holds the two sets in
// lockstep.
var (
	ErrParse            = errors.New("gomd: query parse error")
	ErrQuery            = errors.New("gomd: query failed")
	ErrCanceled         = errors.New("gomd: query canceled")
	ErrDeadlineExceeded = errors.New("gomd: server request deadline exceeded")
	ErrOverloaded       = errors.New("gomd: server overloaded")
	ErrShuttingDown     = errors.New("gomd: server shutting down")
	ErrBadRequest       = errors.New("gomd: bad request")
	ErrProtocol         = errors.New("gomd: protocol error")
	ErrInternal         = errors.New("gomd: internal server error")

	// ErrConnClosed reports that the connection is unusable — Close was
	// called, or the transport died — with requests still pending.
	ErrConnClosed = errors.New("gomd: connection closed")

	// ErrConnLost is the transport-failure subset of ErrConnClosed: the
	// server (or the network) dropped the connection mid-request — a raw
	// io.EOF / net.OpError from the stream surfaces as this, never
	// untyped. It wraps ErrConnClosed, so errors.Is(err, ErrConnClosed)
	// still matches; errors.Is(err, ErrConnLost) distinguishes a lost
	// transport (retryable against a reconnect — queries are read-only)
	// from a deliberate local Close.
	ErrConnLost = fmt.Errorf("gomd: connection lost: %w", ErrConnClosed)
)

var sentinelByCode = map[string]error{
	wire.CodeParse:            ErrParse,
	wire.CodeQuery:            ErrQuery,
	wire.CodeCanceled:         ErrCanceled,
	wire.CodeDeadlineExceeded: ErrDeadlineExceeded,
	wire.CodeOverloaded:       ErrOverloaded,
	wire.CodeShuttingDown:     ErrShuttingDown,
	wire.CodeBadRequest:       ErrBadRequest,
	wire.CodeProtocol:         ErrProtocol,
	wire.CodeInternal:         ErrInternal,
}

// ErrFor returns the sentinel for a wire error code (ErrInternal for
// unknown codes — the closed-set contract means that is a server bug).
func ErrFor(code string) error {
	if s, ok := sentinelByCode[code]; ok {
		return s
	}
	return ErrInternal
}

// ServerError is a typed failure reported by the server.
type ServerError struct {
	Code    string        // wire error code (wire.Code*)
	Message string        // human-readable detail
	Trailer *wire.Trailer // resource trailer (nil on non-query errors)
}

// Error renders code and message.
func (e *ServerError) Error() string { return "gomd: " + e.Code + ": " + e.Message }

// Unwrap maps the code to its sentinel so errors.Is works.
func (e *ServerError) Unwrap() error { return ErrFor(e.Code) }

// Result is a query's answer: the projected values in the engine's
// deterministic sorted order, each rendered with gom.ValueString, plus
// the plan line describing index use, the request's trace ID (as echoed
// by the server — equal to the one the request carried, or
// server-generated when the request was untraced) and the server's
// resource trailer.
type Result struct {
	Values  []string
	Plan    string
	TraceID telemetry.TraceID
	Trailer *wire.Trailer
}

// Client is one connection to a gomd server.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint32]chan wire.Frame
	nextID  uint32
	closed  bool
	readErr error

	// Session is the server-assigned session ID from the handshake.
	Session uint64
	// Server is the server name from the handshake.
	Server string
}

// Dial connects, performs the Hello handshake, and returns a ready
// client.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial honoring ctx for the connect and handshake. A
// connect that fails is a transport loss like any other: the error
// matches ErrConnLost, and ctx's error when ctx ended the dial.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %w", ErrConnLost, addr, err)
	}
	c := &Client{conn: conn, pending: map[uint32]chan wire.Frame{}}
	go c.readLoop()
	f, err := c.roundTrip(ctx, wire.MsgHello, wire.Hello{Proto: wire.ProtoVersion, Client: "go-client"}, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	var ok wire.HelloOK
	if err := wire.Unmarshal(f, &ok); err != nil {
		conn.Close()
		return nil, err
	}
	c.Session = ok.Session
	c.Server = ok.Server
	return c, nil
}

// Close tears the connection down; pending requests fail with
// ErrConnClosed.
func (c *Client) Close() error {
	c.failAll(ErrConnClosed)
	return c.conn.Close()
}

// Query evaluates one select-from-where query on the server. If ctx is
// canceled while the query is in flight, a MsgCancel is sent and the
// server's CANCELED response is awaited, so the request slot is
// accounted for before Query returns.
func (c *Client) Query(ctx context.Context, sql string) (*Result, error) {
	f, err := c.roundTrip(ctx, wire.MsgQuery, wire.Query{SQL: sql}, c.cancelInflight)
	if err != nil {
		return nil, err
	}
	if f.Type != wire.MsgResult {
		return nil, fmt.Errorf("gomd: unexpected %s response to query", f.Type)
	}
	var res wire.Result
	if err := wire.Unmarshal(f, &res); err != nil {
		return nil, err
	}
	return &Result{Values: res.Values, Plan: res.Plan, TraceID: f.Trace, Trailer: res.Trailer}, nil
}

// roundTrip sends one request frame and waits for its response. onCtx,
// if non-nil, runs when ctx is done while the request is in flight
// (Query uses it to send MsgCancel); after it runs, the response is
// still awaited — the server answers every request — with a fallback
// timeout in case the connection died at the same moment.
func (c *Client) roundTrip(ctx context.Context, t wire.MsgType, body any, onCtx func(reqID uint32)) (wire.Frame, error) {
	if err := ctx.Err(); err != nil {
		return wire.Frame{}, err
	}
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrConnClosed
		}
		return wire.Frame{}, err
	}
	c.nextID++
	if c.nextID == 0 { // ID 0 is reserved for connection-level errors
		c.nextID = 1
	}
	id := c.nextID
	ch := make(chan wire.Frame, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	f, err := wire.Marshal(t, id, body)
	if err == nil {
		// Every request carries trace context: the caller's trace ID when
		// one is scoped onto ctx (telemetry.WithTraceID), a fresh one
		// otherwise, plus this hop's span ID. The server echoes the trace
		// ID on the response and replaces the span ID with its own root
		// span's, so the response points at the server-side spans.
		f.Trace = telemetry.TraceIDFrom(ctx)
		if f.Trace.IsZero() {
			f.Trace = telemetry.NewTraceID()
		}
		f.Span = clientSpanSeq.Add(1)
		if werr := c.writeFrame(f); werr != nil {
			// The transport failed mid-send: typed, so callers can
			// distinguish a lost connection from a protocol error.
			err = fmt.Errorf("%w: %v", ErrConnLost, werr)
		}
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return wire.Frame{}, err
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return wire.Frame{}, c.closeReason()
		}
		return c.decodeResponse(resp)
	case <-ctx.Done():
		if onCtx != nil {
			onCtx(id)
			// The server acknowledges the canceled request; wait for it
			// so the inflight slot is settled, but never hang on a dead
			// connection.
			select {
			case resp, ok := <-ch:
				if !ok {
					return wire.Frame{}, c.closeReason()
				}
				if f, err := c.decodeResponse(resp); err != nil {
					return f, err
				}
				// The query finished before the cancel landed; surface
				// the caller's cancellation anyway.
				return wire.Frame{}, ctx.Err()
			case <-time.After(5 * time.Second):
			}
		}
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return wire.Frame{}, ctx.Err()
	}
}

// clientSpanSeq issues this process's client-hop span IDs (the span
// field of outgoing request frames).
var clientSpanSeq atomic.Uint64

func (c *Client) decodeResponse(f wire.Frame) (wire.Frame, error) {
	if f.Type != wire.MsgError {
		return f, nil
	}
	var eb wire.ErrorBody
	if err := wire.Unmarshal(f, &eb); err != nil {
		return wire.Frame{}, err
	}
	return wire.Frame{}, &ServerError{Code: eb.Code, Message: eb.Message, Trailer: eb.Trailer}
}

// cancelInflight sends a MsgCancel for the request; failures are
// ignored (a dead connection fails the pending request anyway).
func (c *Client) cancelInflight(reqID uint32) {
	f, err := wire.Marshal(wire.MsgCancel, reqID, nil)
	if err == nil {
		c.writeFrame(f)
	}
}

func (c *Client) writeFrame(f wire.Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return wire.WriteFrame(c.conn, f)
}

func (c *Client) readLoop() {
	for {
		f, err := wire.ReadFrame(c.conn)
		if err != nil {
			// A raw io.EOF / net.OpError never escapes: every pending
			// request fails with the typed ErrConnLost (which also
			// matches ErrConnClosed for callers that only care that the
			// connection is gone).
			c.failAll(fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		if f.ReqID == 0 && f.Type == wire.MsgError {
			// Connection-level error (e.g. protocol violation): the
			// server hangs up after this; fail everything with it.
			var eb wire.ErrorBody
			if uerr := wire.Unmarshal(f, &eb); uerr == nil {
				c.failAll(&ServerError{Code: eb.Code, Message: eb.Message})
			} else {
				c.failAll(ErrProtocol)
			}
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ReqID]
		if ok {
			delete(c.pending, f.ReqID)
		}
		c.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// failAll marks the client closed and wakes every pending request.
func (c *Client) failAll(reason error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.readErr = reason
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
}

func (c *Client) closeReason() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return ErrConnClosed
}
