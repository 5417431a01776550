// Package chaos injects network faults between gomd and its clients:
// connection resets, torn frame writes, read/write stalls and
// accept-time refusals. It wraps net.Listener / net.Conn and asks a
// fault.Schedule — the one schedule behind every injector in the tree
// (docs/ROBUSTNESS.md, "Fault schedule") — what to do to each accept,
// read and write, so a failing chaos run reproduces exactly from its
// seed and operation order.
//
// One Injector serves any number of listeners and connections, so the
// schedule spans the whole server in arrival order. Wrap a server's
// listener via server.Config.WrapListener:
//
//	inj := chaos.NewInjector(fault.New(seed), chaos.Probabilities{ResetOnWrite: 0.01})
//	cfg.WrapListener = func(ln net.Listener) net.Listener { return inj.Listener(ln) }
//
// Every injected fault increments chaos_faults_injected_total{kind=…}
// in the process telemetry registry, so a chaos run's /metrics page
// shows exactly what the harness did to the server.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"time"

	"asr/internal/fault"
)

// ErrInjected is wrapped by every error the injector produces, so
// callers and tests can tell injected network faults from genuine ones
// with errors.Is.
var ErrInjected = errors.New("injected network fault")

// The interceptable operations and the network fault kinds: Reset
// closes the connection, Torn delivers a prefix of a write then resets,
// Stall delays the operation by StallFor, Refuse closes an accepted
// connection before the server sees it.
const (
	OpAccept = fault.NetAccept
	OpRead   = fault.NetRead
	OpWrite  = fault.NetWrite

	Reset  = fault.Reset
	Torn   = fault.Torn
	Stall  = fault.Stall
	Refuse = fault.Refuse
)

// Fault is one scheduled network fault: Skip lets that many matching
// operations through before the fault fires; a transient fault clears
// after firing once, a Permanent one keeps firing on every later match.
// TornFraction (writes, Kind Torn) is the fraction of the buffer
// delivered before the reset.
type Fault = fault.Entry

// Probabilities draws faults from the schedule's seeded source instead
// of (or in addition to) the explicit entries; every field is a
// per-operation probability in [0,1]. Zero value: no probabilistic
// faults.
type Probabilities struct {
	AcceptRefuse float64 // accepted connection closed immediately
	ResetOnRead  float64 // read fails, connection closed
	ResetOnWrite float64 // write fails, connection closed
	TornWrite    float64 // prefix delivered, then reset
	StallRead    float64 // read delayed by StallFor
	StallWrite   float64 // write delayed by StallFor
}

// Stats counts injected faults by kind. The embedded fault.Stats is the
// whole schedule's, shared with any other injector built over it.
type Stats struct {
	Resets     uint64
	TornWrites uint64
	Stalls     uint64
	Refusals   uint64
	fault.Stats
}

// Injector applies a fault schedule to any number of chaos listeners
// and connections. Safe for concurrent use.
type Injector struct {
	s *fault.Schedule

	// StallFor bounds every injected stall; zero disables stalls even
	// when scheduled (a stall of zero is a no-op, not a hang).
	StallFor time.Duration
}

// NewInjector returns an injector drawing from s, with probs as its
// probabilistic faults.
func NewInjector(s *fault.Schedule, probs Probabilities) *Injector {
	s.Draw(OpAccept, Refuse, probs.AcceptRefuse)
	s.Draw(OpRead, Reset, probs.ResetOnRead)
	s.Draw(OpRead, Stall, probs.StallRead)
	s.Draw(OpWrite, Reset, probs.ResetOnWrite)
	s.Draw(OpWrite, Torn, probs.TornWrite)
	s.Draw(OpWrite, Stall, probs.StallWrite)
	return &Injector{s: s}
}

// Schedule adds an explicit fault to the schedule.
func (in *Injector) Schedule(f Fault) { in.s.Add(f) }

// Stats returns the injection counters.
func (in *Injector) Stats() Stats {
	st := in.s.Stats()
	return Stats{Resets: st.Fired[Reset], TornWrites: st.Fired[Torn], Stalls: st.Fired[Stall], Refusals: st.Fired[Refuse], Stats: st}
}

// Listener wraps ln: accepted connections pass through the injector's
// fault schedule, and accept-time refusals close the connection before
// the caller sees it.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

// Conn wraps an existing connection (e.g. the client side of a dial)
// in the injector's fault schedule.
func (in *Injector) Conn(c net.Conn) net.Conn {
	return &conn{Conn: c, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

// Accept accepts from the wrapped listener, applying refusal faults:
// a refused connection is closed immediately and Accept moves on to
// the next one — the client experiences a reset-on-connect, the server
// accept loop never sees it.
func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if _, fired := l.in.s.Fire(OpAccept, 0); fired {
			c.Close()
			continue
		}
		return &conn{Conn: c, in: l.in}, nil
	}
}

// conn applies the injector's schedule to one connection. A fired
// reset (or the tail of a torn write) closes the underlying
// connection, so the peer observes the failure too — both sides see a
// broken pipe / unexpected EOF, as with a real RST.
type conn struct {
	net.Conn
	in *Injector
}

func (c *conn) Read(p []byte) (int, error) {
	if f, fired := c.in.s.Fire(OpRead, 0); fired {
		switch f.Kind {
		case Stall:
			time.Sleep(c.in.StallFor)
		default: // Reset
			c.Conn.Close()
			return 0, fmt.Errorf("chaos: read on %v: reset: %w", c.RemoteAddr(), ErrInjected)
		}
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if f, fired := c.in.s.Fire(OpWrite, 0); fired {
		switch f.Kind {
		case Stall:
			time.Sleep(c.in.StallFor)
		case Torn:
			// Deliver a prefix, then reset: the peer reads a torn frame
			// and then an unexpected EOF.
			n := int(f.TornFraction * float64(len(p)))
			if n > 0 {
				c.Conn.Write(p[:n])
			}
			c.Conn.Close()
			return n, fmt.Errorf("chaos: write on %v: torn after %d/%d bytes: %w",
				c.RemoteAddr(), n, len(p), ErrInjected)
		default: // Reset
			c.Conn.Close()
			return 0, fmt.Errorf("chaos: write on %v: reset: %w", c.RemoteAddr(), ErrInjected)
		}
	}
	return c.Conn.Write(p)
}
