package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"asr/internal/fault"
	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server"
	"asr/internal/server/chaos"
)

// okEngine answers every query with a fixed stub result.
type okEngine struct{}

func (okEngine) RunCtx(ctx context.Context, q *query.Query, workers int) (*query.Result, error) {
	return &query.Result{Values: []gom.Value{gom.String("ok")}, Plan: "stub"}, nil
}

func startStubServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s := server.New(okEngine{}, nil, cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

const stubQuery = `select r from r in X`

// fastRetry keeps test backoffs tiny and runs deterministic jitter.
func fastRetry() RetryConfig {
	return RetryConfig{
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		DialTimeout: 5 * time.Second,
		Seed:        42,
	}
}

// TestRetryRecoversFromReset: the server's response write is reset by
// the chaos injector; the pending request fails with ErrConnLost, the
// RetryClient reconnects, reissues, and the caller sees only the
// result.
func TestRetryRecoversFromReset(t *testing.T) {
	inj := chaos.NewInjector(fault.New(1), chaos.Probabilities{})
	// Write 1 is the HelloOK of the first connection; write 2 — the
	// first query response — is reset. The reconnect's writes are clean.
	inj.Schedule(chaos.Fault{Op: chaos.OpWrite, Kind: chaos.Reset, Skip: 1})
	s := startStubServer(t, server.Config{
		WrapListener: func(ln net.Listener) net.Listener { return inj.Listener(ln) },
	})

	r := NewRetryClient(s.Addr(), fastRetry())
	defer r.Close()
	res, err := r.Query(context.Background(), stubQuery)
	if err != nil {
		t.Fatalf("Query through reset: %v", err)
	}
	if len(res.Values) != 1 || res.Values[0] != `"ok"` {
		t.Fatalf("result = %+v", res)
	}
	if got := r.Retries(); got < 1 {
		t.Fatalf("Retries() = %d, want ≥ 1 — the fault never fired?", got)
	}
	if st := inj.Stats(); st.Resets != 1 {
		t.Fatalf("injector stats = %+v, want one reset", st)
	}
}

// TestRetryRecoversFromTornFrame: a torn response frame (prefix
// delivered, then reset) must surface as a typed connection loss and
// recover the same way — the client never sees a corrupt result.
func TestRetryRecoversFromTornFrame(t *testing.T) {
	inj := chaos.NewInjector(fault.New(1), chaos.Probabilities{})
	inj.Schedule(chaos.Fault{Op: chaos.OpWrite, Kind: chaos.Torn, Skip: 1, TornFraction: 0.5})
	s := startStubServer(t, server.Config{
		WrapListener: func(ln net.Listener) net.Listener { return inj.Listener(ln) },
	})

	r := NewRetryClient(s.Addr(), fastRetry())
	defer r.Close()
	res, err := r.Query(context.Background(), stubQuery)
	if err != nil {
		t.Fatalf("Query through torn frame: %v", err)
	}
	if len(res.Values) != 1 || res.Values[0] != `"ok"` {
		t.Fatalf("result = %+v", res)
	}
	if r.Retries() < 1 {
		t.Fatal("torn frame did not trigger a retry")
	}
}

// TestRetryRecoversFromAcceptRefusal: the first connection attempt is
// refused at accept time; the retry dials again and succeeds.
func TestRetryRecoversFromAcceptRefusal(t *testing.T) {
	inj := chaos.NewInjector(fault.New(1), chaos.Probabilities{})
	inj.Schedule(chaos.Fault{Op: chaos.OpAccept, Kind: chaos.Refuse})
	s := startStubServer(t, server.Config{
		WrapListener: func(ln net.Listener) net.Listener { return inj.Listener(ln) },
	})

	r := NewRetryClient(s.Addr(), fastRetry())
	defer r.Close()
	if _, err := r.Query(context.Background(), stubQuery); err != nil {
		t.Fatalf("Query through refused accept: %v", err)
	}
	if st := inj.Stats(); st.Refusals != 1 {
		t.Fatalf("injector stats = %+v, want one refusal", st)
	}
}

// TestRetriesExhausted: when the address never answers, the client
// gives up after MaxAttempts with the typed ErrRetriesExhausted
// wrapping the last transport error.
func TestRetriesExhausted(t *testing.T) {
	// Grab a port that is then closed — dials fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cfg := fastRetry()
	cfg.MaxAttempts = 3
	r := NewRetryClient(addr, cfg)
	defer r.Close()
	_, err = r.Query(context.Background(), stubQuery)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Query = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("exhausted error should wrap the last ErrConnLost failure: %v", err)
	}
	if got := r.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2 (3 attempts)", got)
	}
}

// TestNoRetryOnDeterministicErrors: parse failures are the query's
// fault; they must not burn retry attempts.
func TestNoRetryOnDeterministicErrors(t *testing.T) {
	s := startStubServer(t, server.Config{})
	r := NewRetryClient(s.Addr(), fastRetry())
	defer r.Close()
	// okEngine never fails, but parse errors happen server-side before
	// the engine: send unparsable SQL.
	_, err := r.Query(context.Background(), `select from where`)
	if !errors.Is(err, ErrParse) {
		t.Fatalf("unparsable query = %v, want ErrParse", err)
	}
	if r.Retries() != 0 {
		t.Fatalf("deterministic failure consumed %d retries", r.Retries())
	}
}

// TestRetryableClassification pins the retry policy: exactly the
// transport-loss and load-shed sentinels retry.
func TestRetryableClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{ErrConnLost, true},
		{ErrConnClosed, true},
		{ErrOverloaded, true},
		{ErrShuttingDown, true},
		{&ServerError{Code: "OVERLOADED"}, true},
		{ErrParse, false},
		{ErrQuery, false},
		{ErrCanceled, false},
		{ErrDeadlineExceeded, false},
		{ErrBadRequest, false},
		{ErrProtocol, false},
		{ErrInternal, false},
		{&ServerError{Code: "INTERNAL"}, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
	} {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestRetryClientConcurrent: many goroutines share one RetryClient
// through a flaky network; every request must end in a result.
func TestRetryClientConcurrent(t *testing.T) {
	inj := chaos.NewInjector(fault.New(7), chaos.Probabilities{ResetOnWrite: 0.05})
	s := startStubServer(t, server.Config{
		MaxInflight:  64,
		WrapListener: func(ln net.Listener) net.Listener { return inj.Listener(ln) },
	})
	cfg := fastRetry()
	cfg.MaxAttempts = 16
	r := NewRetryClient(s.Addr(), cfg)
	defer r.Close()

	const workers, per = 8, 25
	errc := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				_, err := r.Query(context.Background(), stubQuery)
				errc <- err
			}
		}()
	}
	for i := 0; i < workers*per; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	t.Logf("concurrent flaky run: %d retries, injector %+v", r.Retries(), inj.Stats())
}
