package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"asr/internal/telemetry"
)

// ErrRetriesExhausted is returned by RetryClient when every attempt at
// a request failed with a retryable error; it wraps the last attempt's
// error, so errors.Is sees both.
var ErrRetriesExhausted = errors.New("gomd: retries exhausted")

// telRetries counts every retried attempt (server_retries_total in the
// process registry — attempt 1 is not a retry). telReconnects counts
// the dials a RetryClient performed beyond its first connection.
var (
	telRetries    = telemetry.Default().Counter("server_retries_total")
	telReconnects = telemetry.Default().Counter("server_reconnects_total")
)

// Retryable reports whether a request that failed with err is safe and
// useful to retry on a fresh connection. Queries are read-only, so
// retry-after-reset is safe (a retried request carries a fresh request
// ID on a fresh connection); retryable are exactly:
//
//   - ErrConnLost / ErrConnClosed — the transport died; the request may
//     or may not have executed, but re-executing a read-only query is
//     harmless;
//   - ErrOverloaded — admission control shed the request before it ran;
//   - ErrShuttingDown — the server is draining; a restart (or another
//     replica behind the same address) can take the retry.
//
// PARSE/QUERY/BAD_REQUEST/PROTOCOL failures are deterministic,
// CANCELED and DEADLINE_EXCEEDED carry the caller's or the server's
// own give-up decision, and INTERNAL needs investigation, not a storm
// of retries — none of those retry.
func Retryable(err error) bool {
	return errors.Is(err, ErrConnClosed) || // includes ErrConnLost
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrShuttingDown)
}

// RetryConfig parameterizes a RetryClient. The zero value is usable:
// 8 attempts, 5ms base backoff doubling to a 500ms cap with full
// jitter, 5s dial timeout, no per-attempt request deadline.
type RetryConfig struct {
	// MaxAttempts bounds the attempts per request (first try included);
	// ≤ 0 means 8.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff ceiling; it doubles per
	// attempt up to MaxBackoff, and the actual sleep is uniform in
	// [0, ceiling) — full jitter, so synchronized clients desynchronize.
	// ≤ 0 means 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling; ≤ 0 means 500ms.
	MaxBackoff time.Duration
	// DialTimeout bounds each (re)connect + handshake; ≤ 0 means 5s.
	DialTimeout time.Duration
	// RequestTimeout, when positive, deadlines each attempt (not the
	// whole request): a wedged attempt is abandoned and retried rather
	// than pinning the caller. Note an attempt that times out client-side
	// fails with context.DeadlineExceeded, which is not retryable —
	// RequestTimeout is a latency bound, not a retry trigger.
	RequestTimeout time.Duration
	// Seed drives the jitter RNG so chaos runs replay; 0 means 1.
	Seed int64
}

func (cfg RetryConfig) withDefaults() RetryConfig {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 5 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 500 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// RetryClient wraps the single-connection Client with automatic
// reconnect and bounded retry for idempotent requests. It dials
// lazily: the first request (or Ping) establishes the connection, and
// any retryable failure discards the connection and redials on the
// next attempt with exponential backoff + jitter. Retries reissue the
// request on the fresh connection — request IDs are per-connection, so
// every retry naturally carries a fresh ID.
//
// Safe for concurrent use; concurrent requests share one underlying
// connection and reconnect it cooperatively (one goroutine redials,
// the rest reuse the result).
type RetryClient struct {
	addr string
	cfg  RetryConfig

	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.Mutex
	c      *Client // nil until the first dial, or after a discard
	dialed bool    // true once any dial succeeded (reconnects counted after)
	closed bool

	retries atomic.Uint64
}

// NewRetryClient returns a lazily-dialing retry client for addr. It
// performs no I/O; the first request connects.
func NewRetryClient(addr string, cfg RetryConfig) *RetryClient {
	cfg = cfg.withDefaults()
	return &RetryClient{addr: addr, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Retries reports how many retried attempts this client has made.
func (r *RetryClient) Retries() uint64 { return r.retries.Load() }

// Close closes the current connection (if any); in-flight requests fail
// with ErrConnClosed and are not retried.
func (r *RetryClient) Close() error {
	r.mu.Lock()
	c := r.c
	r.c = nil
	r.closed = true
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// conn returns the live connection, dialing if needed.
func (r *RetryClient) conn(ctx context.Context) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrConnClosed
	}
	if r.c != nil {
		return r.c, nil
	}
	dctx, cancel := context.WithTimeout(ctx, r.cfg.DialTimeout)
	defer cancel()
	c, err := DialContext(dctx, r.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrConnLost, r.addr, err)
	}
	if r.dialed {
		telReconnects.Inc()
	}
	r.dialed = true
	r.c = c
	return c, nil
}

// discard drops a connection after a retryable failure so the next
// attempt redials. Only the connection that failed is discarded —
// a concurrent request may already have replaced it.
func (r *RetryClient) discard(c *Client) {
	r.mu.Lock()
	if r.c == c {
		r.c = nil
	}
	r.mu.Unlock()
	c.Close()
}

// backoff sleeps before retry attempt n (1-based), honoring ctx:
// uniform in [0, min(MaxBackoff, BaseBackoff·2ⁿ⁻¹)).
func (r *RetryClient) backoff(ctx context.Context, attempt int) error {
	ceiling := r.cfg.BaseBackoff << (attempt - 1)
	if ceiling > r.cfg.MaxBackoff || ceiling <= 0 {
		ceiling = r.cfg.MaxBackoff
	}
	r.rngMu.Lock()
	d := time.Duration(r.rng.Int63n(int64(ceiling) + 1))
	r.rngMu.Unlock()
	if d == 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs op against a live connection with the retry policy. op must
// be idempotent (all RetryClient requests are read-only).
func (r *RetryClient) do(ctx context.Context, op func(ctx context.Context, c *Client) error) error {
	var lastErr error
	for attempt := 1; attempt <= r.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.retries.Add(1)
			telRetries.Inc()
			if err := r.backoff(ctx, attempt-1); err != nil {
				return err
			}
		}
		c, err := r.conn(ctx)
		if err == nil {
			actx := ctx
			var cancel context.CancelFunc
			if r.cfg.RequestTimeout > 0 {
				actx, cancel = context.WithTimeout(ctx, r.cfg.RequestTimeout)
			}
			err = op(actx, c)
			if cancel != nil {
				cancel()
			}
			if err != nil && errors.Is(err, ErrConnClosed) {
				r.discard(c)
			}
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		if !Retryable(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, r.cfg.MaxAttempts, lastErr)
}

// Query evaluates one read-only query with retries; see Client.Query
// for the single-attempt semantics.
func (r *RetryClient) Query(ctx context.Context, sql string) (*Result, error) {
	var res *Result
	err := r.do(ctx, func(ctx context.Context, c *Client) error {
		var err error
		res, err = c.Query(ctx, sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
