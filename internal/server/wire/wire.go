// Package wire defines gomd's wire protocol: length-prefixed binary
// frames carrying typed, JSON-encoded message bodies. The framing is
// binary so a reader can delimit messages with one fixed-size header
// read and one payload read (no scanning, no escaping, cheap to fuzz);
// the bodies are JSON so messages can grow fields without a protocol
// version bump. docs/SERVICE.md specifies the protocol; this package is
// the single source of truth both the server (internal/server) and the
// client (internal/server/client) compile against.
//
// Frame layout (all integers big-endian):
//
//	offset size  field
//	0      4     payload length (bytes following the header)
//	4      1     message type (MsgType)
//	5      4     request ID (echoed verbatim in the response)
//	9      16    trace ID (opaque; all-zero = absent)
//	25     8     span ID (sender's hop; 0 = absent)
//	33     n     payload (JSON body, may be empty)
//
// Every request frame carries a client-chosen request ID; the matching
// response echoes it, so one connection can have several requests in
// flight and responses may arrive in any order. MsgCancel references an
// earlier request's ID instead of opening its own exchange.
//
// The trace bytes are the wire half of end-to-end request tracing
// (docs/OBSERVABILITY.md): the client stamps each request with a fresh
// 16-byte trace ID (or one the caller supplied) plus its own hop's span
// ID; the server echoes the trace ID on every response — generating one
// first when the request arrived without — and replaces the span ID
// with the ID of the server-side root span it executed under, so a
// response frame points straight at its spans in the server's /traces
// ring. An all-zero trace ID simply means "untraced"; the codec carries
// it opaquely either way.
//
// The decoder is total: any byte sequence either decodes to a frame or
// fails with one of the typed errors below — it never panics and never
// over-reads (FuzzFrameDecode holds it to that contract, mirroring the
// WAL record codec's fuzz test).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"asr/internal/telemetry"
)

// TraceID is the header's 16-byte trace identifier — the telemetry
// package's type, so a decoded frame's trace drops straight onto a
// context with telemetry.WithTraceID and every span the request starts
// links to it.
type TraceID = telemetry.TraceID

// ProtoVersion is the protocol generation negotiated by Hello/HelloOK.
// Servers reject clients whose version does not match. Version 2 widened
// the frame header with trace context (trace ID + span ID).
const ProtoVersion = 2

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 33

// MaxPayload bounds a single frame's payload. Frames above it are a
// protocol error on decode and a caller bug on encode; the bound keeps
// a malformed or hostile length prefix from provoking a giant
// allocation.
const MaxPayload = 8 << 20

// MsgType identifies a frame's body type.
type MsgType uint8

// Message types. Requests are client→server, responses server→client;
// every request type receives exactly one response frame with the same
// request ID. Types 6 and 7 (ping, pong) and 9 and 10 (stats,
// stats_result) are reserved: they were dropped for want of a client,
// and a server answers them like any unknown type, with CodeBadRequest.
const (
	MsgHello   MsgType = 1 // Hello        → MsgHelloOK | MsgError
	MsgHelloOK MsgType = 2
	MsgQuery   MsgType = 3 // Query        → MsgResult | MsgError
	MsgResult  MsgType = 4
	MsgError   MsgType = 5
	MsgCancel  MsgType = 8 // empty; references an in-flight request ID
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloOK:
		return "hello_ok"
	case MsgQuery:
		return "query"
	case MsgResult:
		return "result"
	case MsgError:
		return "error"
	case MsgCancel:
		return "cancel"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Typed framing errors. ErrFrameTruncated means more bytes may complete
// the frame; ErrFrameTooLarge means the stream is unrecoverable (the
// length prefix itself is bad) and the connection must be closed.
var (
	ErrFrameTruncated = errors.New("wire: truncated frame")
	ErrFrameTooLarge  = fmt.Errorf("wire: frame exceeds %d-byte payload limit", MaxPayload)
)

// Frame is one decoded protocol frame.
type Frame struct {
	Type    MsgType
	ReqID   uint32
	Trace   TraceID // end-to-end trace ID; zero = untraced
	Span    uint64  // sender hop's span ID; 0 = absent
	Payload []byte
}

// EncodeFrame renders the frame to bytes. The only failure is an
// oversized payload.
func EncodeFrame(f Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	b := make([]byte, HeaderSize+len(f.Payload))
	binary.BigEndian.PutUint32(b[0:4], uint32(len(f.Payload)))
	b[4] = byte(f.Type)
	binary.BigEndian.PutUint32(b[5:9], f.ReqID)
	copy(b[9:25], f.Trace[:])
	binary.BigEndian.PutUint64(b[25:33], f.Span)
	copy(b[HeaderSize:], f.Payload)
	return b, nil
}

// DecodeFrame decodes one frame from the front of b, returning the
// frame and the bytes consumed. On failure it consumes nothing and
// returns a typed error. The returned payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrFrameTruncated
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxPayload {
		return Frame{}, 0, ErrFrameTooLarge
	}
	total := HeaderSize + int(n)
	if len(b) < total {
		return Frame{}, 0, ErrFrameTruncated
	}
	f := Frame{
		Type:    MsgType(b[4]),
		ReqID:   binary.BigEndian.Uint32(b[5:9]),
		Span:    binary.BigEndian.Uint64(b[25:33]),
		Payload: b[HeaderSize:total],
	}
	copy(f.Trace[:], b[9:25])
	return f, total, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	b, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads exactly one frame from r. A clean EOF before any
// header byte returns io.EOF; a partial frame returns
// io.ErrUnexpectedEOF; a bad length prefix returns ErrFrameTooLarge.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxPayload {
		return Frame{}, ErrFrameTooLarge
	}
	f := Frame{
		Type:  MsgType(hdr[4]),
		ReqID: binary.BigEndian.Uint32(hdr[5:9]),
		Span:  binary.BigEndian.Uint64(hdr[25:33]),
	}
	copy(f.Trace[:], hdr[9:25])
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

// Marshal builds a frame of the given type with v's JSON encoding as
// payload. A nil v produces an empty payload.
func Marshal(t MsgType, reqID uint32, v any) (Frame, error) {
	f := Frame{Type: t, ReqID: reqID}
	if v == nil {
		return f, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return Frame{}, err
	}
	if len(b) > MaxPayload {
		return Frame{}, ErrFrameTooLarge
	}
	f.Payload = b
	return f, nil
}

// Unmarshal decodes a frame payload into v.
func Unmarshal(f Frame, v any) error {
	if err := json.Unmarshal(f.Payload, v); err != nil {
		return fmt.Errorf("wire: bad %s payload: %w", f.Type, err)
	}
	return nil
}

// message bodies -----------------------------------------------------

// Hello opens a session.
type Hello struct {
	Proto  int    `json:"proto"`
	Client string `json:"client,omitempty"`
}

// HelloOK accepts a session.
type HelloOK struct {
	Proto   int    `json:"proto"`
	Server  string `json:"server"`
	Session uint64 `json:"session"`
}

// Query asks the server to evaluate one select-from-where query in the
// paper's notation. A "workers" field sent by an older client is an
// unknown field to the decoder and ignored: each query runs on one
// goroutine.
type Query struct {
	SQL string `json:"sql"`
}

// Trailer is the compact per-request resource accounting the server
// attaches to every query response (result and error alike). Times are
// microseconds; BytesOut counts the rendered result bytes (values +
// plan), not frame overhead; PagesRead is the buffer-pool fetch delta
// attributed to the request (approximate when the pool is shared by
// concurrent queries).
type Trailer struct {
	TraceID  string `json:"trace_id,omitempty"`
	QueueUS  int64  `json:"queue_us"`
	ExecUS   int64  `json:"exec_us"`
	Pages    uint64 `json:"pages_read"`
	Objects  uint64 `json:"objects_fetched"`
	BytesIn  int    `json:"bytes_in"`
	BytesOut int    `json:"bytes_out"`
}

// Result carries a query's projected values — each rendered with
// gom.ValueString, in the engine's deterministic sorted order, so a
// wire result is byte-comparable with an in-process run — plus the
// plan line and the request's resource trailer.
type Result struct {
	Values  []string `json:"values"`
	Plan    string   `json:"plan"`
	Trailer *Trailer `json:"trailer,omitempty"`
}

// ErrorBody is the payload of a MsgError response. Query errors carry
// the resource trailer too — a canceled or deadline-exceeded request
// still reports what it consumed.
type ErrorBody struct {
	Code    string   `json:"code"`
	Message string   `json:"message"`
	Trailer *Trailer `json:"trailer,omitempty"`
}

// StatsResult is a server-level observability snapshot
// (Server.Stats). The full metric surface is the admin /metrics
// endpoint; this is the summary an in-process caller can poll cheaply.
type StatsResult struct {
	Server        string `json:"server"`
	Draining      bool   `json:"draining"`
	SessionsOpen  int    `json:"sessions_open"`
	SessionsTotal uint64 `json:"sessions_total"`
	Requests      uint64 `json:"requests"`
	Queries       uint64 `json:"queries"`
	Errors        uint64 `json:"errors"`
	Overloads     uint64 `json:"overloads"`
	Inflight      int    `json:"inflight"`
	MaxInflight   int    `json:"max_inflight"`

	// Manager routing counters (zero when the server runs without an
	// asr.Manager).
	ManagerQueries    uint64 `json:"manager_queries"`
	ManagerIndexHits  uint64 `json:"manager_index_hits"`
	ManagerTraversals uint64 `json:"manager_traversals"`
	ManagerExhaustive uint64 `json:"manager_exhaustive"`
	ManagerDegraded   uint64 `json:"manager_degraded"`
	Indexes           int    `json:"indexes"`
}

// error codes --------------------------------------------------------

// Error codes carried by ErrorBody. The set is closed: the server maps
// every failure to exactly one code, and the client maps every code to
// a typed sentinel error (client.ErrFor); a table test on the client
// side walks Codes to keep the two in lockstep.
const (
	CodeParse            = "PARSE"             // the query text failed to parse
	CodeQuery            = "QUERY"             // resolution/evaluation failed (unknown collection, type error, …)
	CodeCanceled         = "CANCELED"          // the request's context was canceled (MsgCancel or disconnect)
	CodeDeadlineExceeded = "DEADLINE_EXCEEDED" // the server's per-request deadline expired before the query finished
	CodeOverloaded       = "OVERLOADED"        // admission control: max-inflight reached, retry later
	CodeShuttingDown     = "SHUTTING_DOWN"     // server is draining; no new work accepted
	CodeBadRequest       = "BAD_REQUEST"       // malformed payload or unknown message type
	CodeProtocol         = "PROTOCOL"          // handshake violation (bad version, missing Hello)
	CodeInternal         = "INTERNAL"          // unexpected server-side failure (includes storage faults during execution)
)

// Codes lists every error code the server can emit.
var Codes = []string{
	CodeParse,
	CodeQuery,
	CodeCanceled,
	CodeDeadlineExceeded,
	CodeOverloaded,
	CodeShuttingDown,
	CodeBadRequest,
	CodeProtocol,
	CodeInternal,
}
