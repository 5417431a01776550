package server

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asr/internal/fault"
	"asr/internal/server/chaos"
	"asr/internal/server/client"
	"asr/internal/storage"
)

// defaultChaosSeed is the fixed-seed CI gate's seed. Its accept-refusal
// schedule refuses the very first accept, at both the full run's and
// the -short run's probability, so the gate drives the refused-accept
// path every time: a run makes at least one accept per connection.
// Seed 1 would refuse none of its first 32.
const defaultChaosSeed = 9

// chaosSeed returns the run's fault-schedule seed and whether it is the
// fixed one: defaultChaosSeed, or CHAOS_SEED from the environment — the
// randomized pass of `make chaos-smoke` sets it, and the log line
// below is what reproduces a failing run.
func chaosSeed(t *testing.T) (seed int64, fixed bool) {
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return defaultChaosSeed, true
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer: %v", s, err)
	}
	t.Logf("chaos seed %d (rerun with CHAOS_SEED=%d to reproduce)", n, n)
	return n, false
}

// chaosDemoDatabase builds the demo database over a fault-injected
// disk behind a small bounded pool, computes the in-process oracle on
// the clean device, then empties the cache and arms the injector —
// the same clean-build-then-arm sequence as gomd's -chaos-disk.
func chaosDemoDatabase(t *testing.T, seed int64, pRead float64) (*Database, []string, map[string]string, *storage.FaultInjector) {
	t.Helper()
	// 4 frames: the demo index doesn't fit, so probes keep missing the
	// cache and the injector sees a continuous read stream. (A pool the
	// index fits in re-caches everything after one clean pass and the
	// disk goes quiet.)
	dev := storage.NewFaultInjector(storage.NewDisk(0), fault.New(seed))
	pool := storage.NewBufferPool(dev, 4, storage.LRU)
	d, err := DemoDatabaseWith(2, 42, pool)
	if err != nil {
		t.Fatal(err)
	}
	queries, want, _ := demoQuerySet(t, d)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropClean(); err != nil {
		t.Fatal(err)
	}
	dev.FailProbabilistically(pRead, 0)
	return d, queries, want, dev
}

// typedChaosError reports whether err is one of the errors the chaos
// contract allows a caller to see: a typed storage fault (INTERNAL), a
// typed server deadline, a shed request (OVERLOADED), or a typed
// transport loss (ErrConnLost, which matches ErrConnClosed). Anything
// else — an untyped string, a raw EOF, a client-side hang — is a bug.
func typedChaosError(err error) bool {
	return errors.Is(err, client.ErrInternal) ||
		errors.Is(err, client.ErrDeadlineExceeded) ||
		errors.Is(err, client.ErrOverloaded) ||
		errors.Is(err, client.ErrConnClosed)
}

// chaosConn is one caller's connection to addr: it dials when it has
// none and drops it after a transport error, so the next request dials
// a fresh one. Nothing retries.
type chaosConn struct {
	addr string
	c    *client.Client
}

func (cc *chaosConn) query(ctx context.Context, sql string) (*client.Result, error) {
	if cc.c == nil {
		c, err := client.DialContext(ctx, cc.addr)
		if err != nil {
			return nil, err
		}
		cc.c = c
	}
	res, err := cc.c.Query(ctx, sql)
	if errors.Is(err, client.ErrConnClosed) {
		cc.close()
	}
	return res, err
}

func (cc *chaosConn) close() {
	if cc.c != nil {
		cc.c.Close()
		cc.c = nil
	}
}

// TestChaosSaturation is the headline robustness proof: 32 connections
// saturate the server while the network injector resets, tears,
// stalls and refuses, and the disk injector fails page reads. Every
// single request must end in either a byte-identical result (vs the
// in-process oracle computed on the clean device) or a typed error —
// zero hangs, zero unexplained failures, zero goroutine leaks. Each
// worker holds one plain client.Client and dials a fresh one after a
// transport error; nothing retries. Run under -race by `make
// chaos-smoke`.
func TestChaosSaturation(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	// In -short mode the run is ~13× smaller, so the per-op fault
	// probabilities scale up ~4× — otherwise the "chaos actually fired"
	// assertion below would be a coin flip on an unlucky seed.
	conns, perConn, pNet := 32, 40, 1.0
	if testing.Short() {
		conns, perConn, pNet = 8, 12, 4.0
	}
	seed, fixed := chaosSeed(t)
	d, queries, want, disk := chaosDemoDatabase(t, seed, 0.08)

	// Accept refusals draw from a schedule of their own. Accepts come
	// from one goroutine, so the k-th accept's fate then depends on the
	// seed alone, not on how the sessions' reads and writes interleave
	// with the accepts — which is what lets a fixed seed promise one.
	refuser := chaos.NewInjector(fault.New(seed), chaos.Probabilities{AcceptRefuse: 0.02 * pNet})
	netInj := chaos.NewInjector(fault.New(seed), chaos.Probabilities{
		ResetOnRead:  0.01 * pNet,
		ResetOnWrite: 0.01 * pNet,
		TornWrite:    0.005 * pNet,
		StallRead:    0.005 * pNet,
		StallWrite:   0.005 * pNet,
	})
	netInj.StallFor = 20 * time.Millisecond

	s := startServer(t, d.Engine, d, Config{
		MaxInflight:    2 * conns,
		RequestTimeout: 5 * time.Second,
		WriteTimeout:   2 * time.Second,
		WrapListener:   func(ln net.Listener) net.Listener { return refuser.Listener(netInj.Listener(ln)) },
	})

	var succeeded, typedErrs, failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			cc := &chaosConn{addr: s.Addr()}
			defer cc.close()
			for j := 0; j < perConn; j++ {
				sql := queries[(conn*perConn+j)%len(queries)]
				// The guard context converts a hang into a test failure
				// instead of a suite timeout.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := cc.query(ctx, sql)
				cancel()
				switch {
				case err == nil:
					if got := strings.Join(res.Values, "\n"); got != want[sql] {
						fail("conn %d req %d: values diverge under chaos\n got: %q\nwant: %q", conn, j, got, want[sql])
						return
					}
					succeeded.Add(1)
				case typedChaosError(err):
					typedErrs.Add(1)
				case ctx.Err() != nil:
					fail("conn %d req %d: HANG (30s guard): %v", conn, j, err)
					return
				default:
					fail("conn %d req %d: untyped failure under chaos: %v", conn, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d of %d requests hung, diverged, or failed untyped", n, conns*perConn)
	}
	if succeeded.Load() == 0 {
		t.Fatal("no request succeeded — the workload proved nothing")
	}
	refusals := refuser.Stats().Refusals
	if netInj.Stats().Resets == 0 || disk.FaultStats().ReadFaults == 0 {
		t.Fatalf("chaos never fired (net %+v, %d refusals, disk %+v) — the run proved nothing",
			netInj.Stats(), refusals, disk.FaultStats())
	}
	if fixed && refusals == 0 {
		t.Fatalf("seed %d refused no accept (net %+v) — the refused-accept path went untested", seed, netInj.Stats())
	}
	t.Logf("chaos saturation: %d ok, %d typed errors; net %+v, %d refusals; disk %+v",
		succeeded.Load(), typedErrs.Load(), netInj.Stats(), refusals, disk.FaultStats())

	// Everything client-side is closed; drain the server and require the
	// goroutine count to return to baseline — no leaked sessions,
	// watchdogs, or parked writers.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after chaos: %v", err)
	}
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= goroutinesBefore+2 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutine leak: before %d, after %d", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosScheduledDeterministic is the fixed-schedule counterpart:
// a known list of scheduled network faults — no probabilistic draws,
// no disk faults. Each fault that hits a request — a reset, a torn
// frame, a refused accept under the caller's dial — reaches the caller
// as a typed transport error (ErrConnLost), never as a raw EOF or a
// corrupt answer, and the next request, on a fresh connection, returns
// the oracle's bytes unless a fault of its own fires.
func TestChaosScheduledDeterministic(t *testing.T) {
	d, err := DemoDatabase(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, want, _ := demoQuerySet(t, d)

	netInj := chaos.NewInjector(fault.New(99), chaos.Probabilities{})
	// A burst of faults spread across the run's write/read stream.
	writeResets := []int{2, 9, 17, 25}
	for _, skip := range writeResets {
		netInj.Schedule(chaos.Fault{Op: chaos.OpWrite, Kind: chaos.Reset, Skip: skip})
	}
	netInj.Schedule(chaos.Fault{Op: chaos.OpRead, Kind: chaos.Reset, Skip: 30})
	netInj.Schedule(chaos.Fault{Op: chaos.OpWrite, Kind: chaos.Torn, Skip: 12, TornFraction: 0.3})
	netInj.Schedule(chaos.Fault{Op: chaos.OpAccept, Kind: chaos.Refuse, Skip: 1}) // the first redial
	fired := func() uint64 { st := netInj.Stats(); return st.Resets + st.TornWrites + st.Refusals }

	s := startServer(t, d.Engine, d, Config{
		MaxInflight:  16,
		WrapListener: func(ln net.Listener) net.Listener { return netInj.Listener(ln) },
	})

	cc := &chaosConn{addr: s.Addr()}
	defer cc.close()
	lost, afterLoss := 0, false
	for j := 0; j < 60; j++ {
		sql := queries[j%len(queries)]
		before := fired()
		res, err := cc.query(context.Background(), sql)
		switch {
		case err == nil:
			if got := strings.Join(res.Values, "\n"); got != want[sql] {
				t.Fatalf("req %d: diverged from the oracle", j)
			}
		case !errors.Is(err, client.ErrConnLost):
			t.Fatalf("req %d: scheduled fault reached the caller untyped: %v", j, err)
		case afterLoss && fired() == before:
			t.Fatalf("req %d: failed on a fresh connection that no fault hit: %v", j, err)
		default:
			lost++
		}
		afterLoss = err != nil
	}
	// A write fault always lands on a response the caller awaits, and a
	// refusal on the caller's dial; the read reset may instead hit a
	// connection the caller has abandoned.
	st := netInj.Stats()
	if st.Resets != uint64(len(writeResets)+1) || st.TornWrites != 1 || st.Refusals != 1 {
		t.Fatalf("schedule did not fire in full: %+v", st)
	}
	if lost < len(writeResets)+2 || uint64(lost) > fired() {
		t.Fatalf("%d transport errors from %+v, want one per write fault and refusal and none without a fault", lost, st)
	}
	t.Logf("deterministic chaos: %d transport errors from %+v", lost, st)
}
