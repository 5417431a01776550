package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server/client"
	"asr/internal/server/wire"
)

// TestRequestDeadlineExceeded: a query that outlives the server-side
// RequestTimeout is cut off with the typed DEADLINE_EXCEEDED code, not
// a hang and not a generic CANCELED.
func TestRequestDeadlineExceeded(t *testing.T) {
	eng := newBlockingEngine()
	s := startServer(t, eng, nil, Config{RequestTimeout: 50 * time.Millisecond})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Query(context.Background(), anyQuery)
	if !errors.Is(err, client.ErrDeadlineExceeded) {
		t.Fatalf("Query past RequestTimeout = %v, want ErrDeadlineExceeded", err)
	}
	// The sentinel must carry the wire code, so raw inspection agrees.
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("error %v does not carry code %s", err, wire.CodeDeadlineExceeded)
	}
}

// TestClientCancelBeatsRequestTimeout: with a RequestTimeout configured,
// an explicit client cancel must still surface as CANCELED — the
// deadline mapping may not swallow caller intent.
func TestClientCancelBeatsRequestTimeout(t *testing.T) {
	eng := newBlockingEngine()
	s := startServer(t, eng, nil, Config{RequestTimeout: 10 * time.Second})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, qerr := c.Query(ctx, anyQuery)
		done <- qerr
	}()
	eng.awaitStarted(t, 1)
	cancel()
	if err := <-done; !errors.Is(err, client.ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query = %v, want CANCELED", err)
	}
}

// TestIdleWatchdogReaps: a session that goes silent past IdleTimeout is
// closed by the watchdog; the client observes the loss as ErrConnClosed
// and the server's session table empties.
func TestIdleWatchdogReaps(t *testing.T) {
	eng := newBlockingEngine()
	s := startServer(t, eng, nil, Config{IdleTimeout: 80 * time.Millisecond})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SessionsOpen != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session not reaped; stats %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, anyQuery); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("query after reap = %v, want ErrConnClosed", err)
	}
}

// TestIdleWatchdogSparesInflight: a session whose request is still
// executing is active no matter how long the query runs — the watchdog
// only reaps sessions with nothing in flight.
func TestIdleWatchdogSparesInflight(t *testing.T) {
	eng := newBlockingEngine()
	s := startServer(t, eng, nil, Config{IdleTimeout: 50 * time.Millisecond})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, qerr := c.Query(context.Background(), anyQuery)
		done <- qerr
	}()
	eng.awaitStarted(t, 1)
	time.Sleep(300 * time.Millisecond) // several watchdog periods
	if got := s.Stats().SessionsOpen; got != 1 {
		t.Fatalf("SessionsOpen = %d during in-flight query, want 1", got)
	}
	close(eng.release)
	if err := <-done; err != nil {
		t.Fatalf("query after watchdog periods: %v", err)
	}
}

// wideEngine returns a result big enough (~3MB rendered) that writing
// it fills both peers' socket buffers when the reader stops draining.
type wideEngine struct{}

func (wideEngine) RunCtx(ctx context.Context, q *query.Query, workers int) (*query.Result, error) {
	vals := make([]gom.Value, 30000)
	pad := strings.Repeat("x", 100)
	for i := range vals {
		vals[i] = gom.String(pad)
	}
	return &query.Result{Values: vals, Plan: "wide"}, nil
}

// smallBufListener shrinks each accepted connection's send buffer so a
// multi-megabyte response cannot hide in kernel buffering — the write
// genuinely blocks when the peer stops reading.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096)
	}
	return c, nil
}

// TestSlowReaderReaped is the slow-reader guard end to end: a client
// that sends a query and never reads the (large) response must not pin
// the session goroutine, block Shutdown, or leak goroutines. The write
// deadline tears the session down instead.
func TestSlowReaderReaped(t *testing.T) {
	before := runtime.NumGoroutine()

	s := startServer(t, wideEngine{}, nil, Config{
		WriteTimeout: 150 * time.Millisecond,
		WrapListener: func(ln net.Listener) net.Listener { return smallBufListener{ln} },
	})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
	}
	hello, err := wire.Marshal(wire.MsgHello, 1, wire.Hello{Proto: wire.ProtoVersion})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.MsgHelloOK {
		t.Fatalf("handshake: frame %v err %v", f.Type, err)
	}
	q, err := wire.Marshal(wire.MsgQuery, 2, wire.Query{SQL: anyQuery})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, q); err != nil {
		t.Fatal(err)
	}
	// ... and never read. The ~3MB response overflows the socket
	// buffers; the server's write deadline must fire and reap us.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().SessionsOpen != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow reader still holds a session; stats %+v", s.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Drain must be instant — no admitted work is pending.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with slow reader: %v", err)
	}

	// No goroutine may outlive the session it served.
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
