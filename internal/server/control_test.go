package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server/client"
	"asr/internal/server/wire"
)

// blockingEngine is a QueryEngine whose queries park until released —
// it makes overload, cancellation and drain schedules deterministic
// instead of timing-dependent. Each RunCtx signals `started`, then
// waits for ctx cancellation or the release channel.
type blockingEngine struct {
	started chan struct{}
	release chan struct{}
}

func newBlockingEngine() *blockingEngine {
	return &blockingEngine{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (e *blockingEngine) RunCtx(ctx context.Context, q *query.Query, workers int) (*query.Result, error) {
	e.started <- struct{}{}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.release:
		return &query.Result{Values: []gom.Value{gom.String("ok")}, Plan: "stub"}, nil
	}
}

func (e *blockingEngine) awaitStarted(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-e.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d queries reached the engine", i, n)
		}
	}
}

const anyQuery = `select r from r in X`

// TestCancelInflight: canceling a Query's context sends MsgCancel; the
// server cancels that request's engine context and answers CANCELED,
// which surfaces as ErrCanceled — and the inflight slot is released.
func TestCancelInflight(t *testing.T) {
	eng := newBlockingEngine()
	s := startServer(t, eng, nil, Config{MaxInflight: 1})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, anyQuery)
		done <- err
	}()
	eng.awaitStarted(t, 1)
	cancel()
	if err := <-done; !errors.Is(err, client.ErrCanceled) {
		t.Fatalf("canceled query returned %v, want ErrCanceled", err)
	}

	// The slot was released: with MaxInflight=1 a fresh query is
	// admitted (it would get ErrOverloaded if the slot leaked).
	done2 := make(chan error, 1)
	go func() {
		res, err := c.Query(context.Background(), anyQuery)
		if err == nil && (len(res.Values) != 1 || res.Values[0] != `"ok"`) {
			err = errors.New("wrong stub result")
		}
		done2 <- err
	}()
	eng.awaitStarted(t, 1)
	close(eng.release)
	if err := <-done2; err != nil {
		t.Fatalf("follow-up query after cancel: %v", err)
	}
}

// TestOverload: with MaxInflight=1 and one query parked in the engine,
// the next query is rejected immediately with ErrOverloaded — it never
// reaches the engine — and succeeds once the slot frees.
func TestOverload(t *testing.T) {
	eng := newBlockingEngine()
	s := startServer(t, eng, nil, Config{MaxInflight: 1})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), anyQuery)
		first <- err
	}()
	eng.awaitStarted(t, 1)

	if _, err := c.Query(context.Background(), anyQuery); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("second query returned %v, want ErrOverloaded", err)
	}
	if len(eng.started) != 0 {
		t.Fatal("rejected query reached the engine")
	}

	close(eng.release)
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
	if _, err := c.Query(context.Background(), anyQuery); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if st := s.Stats(); st.Overloads != 1 {
		t.Fatalf("overloads = %d, want 1", st.Overloads)
	}
}

// TestDrainCompletesAdmitted is the drain invariant test: queries
// admitted before Shutdown complete with full results; queries arriving
// after drain starts get ErrShuttingDown; Shutdown returns only once
// every admitted response is on the wire, and the OnDrain hook runs
// after the last response but before the sessions close.
func TestDrainCompletesAdmitted(t *testing.T) {
	eng := newBlockingEngine()
	var hookMu sync.Mutex
	hookRan := false
	var admittedDone sync.WaitGroup
	s := startServer(t, eng, nil, Config{MaxInflight: 8, OnDrain: func() error {
		hookMu.Lock()
		defer hookMu.Unlock()
		hookRan = true
		return nil
	}})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const admitted = 3
	results := make(chan error, admitted)
	admittedDone.Add(admitted)
	for i := 0; i < admitted; i++ {
		go func() {
			defer admittedDone.Done()
			res, err := c.Query(context.Background(), anyQuery)
			if err == nil && (len(res.Values) != 1 || res.Values[0] != `"ok"`) {
				err = errors.New("wrong stub result")
			}
			results <- err
		}()
	}
	eng.awaitStarted(t, admitted)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New query during drain → typed rejection, not a hang or a drop.
	if _, err := c.Query(context.Background(), anyQuery); !errors.Is(err, client.ErrShuttingDown) {
		t.Fatalf("query during drain returned %v, want ErrShuttingDown", err)
	}
	hookMu.Lock()
	if hookRan {
		hookMu.Unlock()
		t.Fatal("OnDrain ran while queries were still in flight")
	}
	hookMu.Unlock()

	close(eng.release)
	admittedDone.Wait()
	for i := 0; i < admitted; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted query %d lost during drain: %v", i, err)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	hookMu.Lock()
	if !hookRan {
		hookMu.Unlock()
		t.Fatal("OnDrain hook never ran")
	}
	hookMu.Unlock()

	// The server is really gone: new connections are refused.
	if _, err := client.Dial(s.Addr()); err == nil {
		t.Fatal("Dial succeeded after drain")
	}
}

// TestDrainDeadlineCancels: if the drain context expires while queries
// are still running, the server cancels them — they answer CANCELED
// (still a response, not a loss) — and Shutdown reports the deadline.
func TestDrainDeadlineCancels(t *testing.T) {
	eng := newBlockingEngine() // release is never closed
	s := startServer(t, eng, nil, Config{MaxInflight: 4})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), anyQuery)
		done <- err
	}()
	eng.awaitStarted(t, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline error", err)
	}
	if qerr := <-done; !errors.Is(qerr, client.ErrCanceled) && !errors.Is(qerr, client.ErrConnClosed) {
		t.Fatalf("stuck query got %v, want ErrCanceled (or conn closed after drain)", qerr)
	}
}

// TestRequestWorkersFieldIsIgnored: a Query frame from an older client
// that still carries a "workers" field — 8, or 10⁹ — decodes and is
// answered exactly as one without it: the same values and plan, those
// of an in-process run.
func TestRequestWorkersFieldIsIgnored(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{})
	conn := rawSession(t, s.Addr())
	reqID := uint32(1)
	ask := func(payload string) (values []string, plan string) {
		t.Helper()
		reqID++
		if err := wire.WriteFrame(conn, wire.Frame{Type: wire.MsgQuery, ReqID: reqID, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(conn)
		if err != nil || f.Type != wire.MsgResult || f.ReqID != reqID {
			t.Fatalf("%s: frame %v (request %d) err %v", payload, f.Type, f.ReqID, err)
		}
		var res wire.Result
		if err := wire.Unmarshal(f, &res); err != nil {
			t.Fatal(err)
		}
		return res.Values, res.Plan
	}
	for _, sql := range []string{
		`select r.Name from r in OurRobots where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`,
		`select r.Name from r in OurRobots where r.Arm.MountedTool.Function = "welding"`,
	} {
		wantValues, wantPlan := renderInProcess(t, d, sql)
		quoted, _ := json.Marshal(sql)
		for _, extra := range []string{"", `, "workers": 8`, `, "workers": 1000000000`} {
			payload := fmt.Sprintf(`{"sql": %s%s}`, quoted, extra)
			values, plan := ask(payload)
			if fmt.Sprint(values) != fmt.Sprint(wantValues) || plan != wantPlan {
				t.Errorf("%s: %v, plan %q\nwant %v, plan %q", payload, values, plan, wantValues, wantPlan)
			}
		}
	}
}
