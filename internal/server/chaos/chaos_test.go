package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"asr/internal/fault"
)

// pair returns a connected loopback TCP pair, the server side wrapped
// by the injector's listener.
func pair(t *testing.T, in *Injector) (clientSide, serverSide net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := in.Listener(ln)
	accepted := make(chan net.Conn, 1)
	acceptErr := make(chan error, 1)
	go func() {
		c, err := wrapped.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- c
	}()
	cs, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case serverSide = <-accepted:
	case err := <-acceptErr:
		t.Fatalf("Accept: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Accept never returned")
	}
	t.Cleanup(func() { cs.Close(); serverSide.Close(); ln.Close() })
	return cs, serverSide
}

// TestScheduledReset: a scheduled write reset skips the configured
// number of writes, then fails with ErrInjected and drops the
// connection so the peer sees EOF — both sides observe the fault.
func TestScheduledReset(t *testing.T) {
	in := NewInjector(fault.New(1), Probabilities{})
	in.Schedule(Fault{Op: OpWrite, Kind: Reset, Skip: 1})
	cs, ss := pair(t, in)

	if _, err := ss.Write([]byte("first")); err != nil {
		t.Fatalf("skipped write failed: %v", err)
	}
	buf := make([]byte, 16)
	n, err := cs.Read(buf)
	if err != nil || string(buf[:n]) != "first" {
		t.Fatalf("peer read %q, %v", buf[:n], err)
	}

	if _, err := ss.Write([]byte("second")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after schedule = %v, want ErrInjected", err)
	}
	if _, err := cs.Read(buf); err == nil {
		t.Fatal("peer read succeeded after injected reset")
	}
	if st := in.Stats(); st.Resets != 1 || st.TornWrites+st.Stalls+st.Refusals != 0 {
		t.Fatalf("stats = %+v, want exactly one reset", st)
	}
}

// TestTornWrite: a torn write delivers exactly the configured prefix
// before the reset — the peer reads a torn frame, then EOF.
func TestTornWrite(t *testing.T) {
	in := NewInjector(fault.New(1), Probabilities{})
	in.Schedule(Fault{Op: OpWrite, Kind: Torn, TornFraction: 0.5})
	cs, ss := pair(t, in)

	payload := bytes.Repeat([]byte{0xAB}, 100)
	n, err := ss.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = %v, want ErrInjected", err)
	}
	if n != 50 {
		t.Fatalf("torn write reported %d bytes delivered, want 50", n)
	}
	got, rerr := io.ReadAll(cs)
	if len(got) != 50 {
		t.Fatalf("peer received %d bytes, want 50 (read err %v)", len(got), rerr)
	}
	if st := in.Stats(); st.TornWrites != 1 {
		t.Fatalf("stats = %+v, want one torn write", st)
	}
}

// TestAcceptRefuse: a scheduled refusal closes the accepted connection
// before the server sees it; the next connection goes through.
func TestAcceptRefuse(t *testing.T) {
	in := NewInjector(fault.New(1), Probabilities{})
	in.Schedule(Fault{Op: OpAccept, Kind: Refuse})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wrapped := in.Listener(ln)

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := wrapped.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	// First dial is refused: TCP connects (the kernel accepts), but the
	// connection is closed immediately — the first read fails.
	refused, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer refused.Close()
	refused.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := refused.Read(make([]byte, 1)); err == nil {
		t.Fatal("refused connection delivered data")
	}

	// Second dial reaches the accept loop.
	ok, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	select {
	case c := <-accepted:
		c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("second connection never accepted")
	}
	if st := in.Stats(); st.Refusals != 1 {
		t.Fatalf("stats = %+v, want one refusal", st)
	}
}

// TestStallBounded: an injected stall delays the operation by StallFor
// and then lets it proceed — a slow network, not a hang.
func TestStallBounded(t *testing.T) {
	in := NewInjector(fault.New(1), Probabilities{})
	in.StallFor = 50 * time.Millisecond
	in.Schedule(Fault{Op: OpRead, Kind: Stall})
	cs, ss := pair(t, in)

	go ss.Write([]byte("x"))
	// The stall is on the server-side wrapper; reads on the client side
	// are unwrapped. Read on the wrapped side instead.
	go cs.Write([]byte("y"))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := ss.Read(buf); err != nil {
		t.Fatalf("stalled read failed: %v", err)
	}
	if d := time.Since(start); d < in.StallFor {
		t.Fatalf("read returned after %v, want ≥ %v stall", d, in.StallFor)
	}
	if st := in.Stats(); st.Stalls != 1 {
		t.Fatalf("stats = %+v, want one stall", st)
	}
}

// TestSeedReproducible: with the same seed and the same operation
// sequence, two injectors fire identical fault decisions — the
// property that makes a failing chaos run replayable.
func TestSeedReproducible(t *testing.T) {
	decisions := func(seed int64) []bool {
		in := NewInjector(fault.New(seed), Probabilities{ResetOnWrite: 0.3})
		var out []bool
		for i := 0; i < 200; i++ {
			_, fired := in.s.Fire(OpWrite, 0)
			out = append(out, fired)
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverges between identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("p=0.3 over 200 draws never fired — RNG not wired")
	}
	c := decisions(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}
