package storage

import (
	"errors"
	"fmt"
	"os"

	"asr/internal/fault"
)

// ErrInjectedFault is wrapped by every error a FaultInjector produces,
// so callers (and tests) can tell injected faults from genuine ones
// with errors.Is.
var ErrInjectedFault = errors.New("injected fault")

// ErrCrashed is wrapped by every operation attempted after a scheduled
// Crashpoint has fired: the simulated process is dead, the file is
// frozen exactly as the interrupted write left it.
var ErrCrashed = errors.New("simulated crash")

// Crashpoint schedules a simulated process kill mid-write. The At-th
// admitted write (1-based) is truncated to Torn×size bytes — a torn
// page when it lands mid-page — and every later write, read and sync
// fails with ErrCrashed. At ≤ 0 never crashes and just counts writes,
// which is how a reference run measures the write-schedule length that
// randomized crash tests then sample.
//
// One Crashpoint may be shared by several files (the page file and its
// WAL): the counter spans them in arrival order, so a crash can land on
// either. It is one Crash entry on a fault.Schedule, so the schedule it
// shares may also drive a FaultInjector and a chaos.Injector.
type Crashpoint struct{ s *fault.Schedule }

// NewCrashpoint schedules on s a crash on the at-th physical write (at
// ≤ 0: never), persisting torn (clamped to [0,1]) of that write's
// bytes.
func NewCrashpoint(s *fault.Schedule, at int64, torn float64) *Crashpoint {
	if at > 0 {
		s.Add(fault.Entry{Op: fault.FileWrite, Kind: fault.Crash, Skip: int(at - 1), TornFraction: min(max(torn, 0), 1)})
	}
	return &Crashpoint{s}
}

// Crashed reports whether the crashpoint has fired.
func (c *Crashpoint) Crashed() bool { return c.s.Crashed() }

// admit gates one physical write of n bytes: it returns how many bytes
// may reach the file and ErrCrashed when the crash fires on (or fired
// before) this write.
func (c *Crashpoint) admit(n int) (int, error) {
	e, crashed := c.s.Fire(fault.FileWrite, 0)
	if !crashed {
		return n, nil
	}
	return int(e.TornFraction * float64(n)), ErrCrashed
}

// writeAt performs one gated physical write of b to f at off — the one
// place a crashpoint meets a file. A nil crashpoint admits everything; a
// firing one persists only the torn prefix and returns ErrCrashed.
func (c *Crashpoint) writeAt(f *os.File, b []byte, off int64) error {
	allowed, crashErr := len(b), error(nil)
	if c != nil {
		allowed, crashErr = c.admit(len(b))
	}
	if allowed > 0 {
		if _, err := f.WriteAt(b[:allowed], off); err != nil {
			return err
		}
	}
	return crashErr
}

// sync fsyncs f, unless a crashpoint guards it. A crashpoint simulates
// a killed process, which loses nothing the operating system holds, so
// a device flush would show the simulation nothing; skipping it keeps a
// crash matrix, which replays its scene once per write, from stalling
// every other writer on the device. A nil crashpoint (every production
// file) always syncs.
func (c *Crashpoint) sync(f *os.File) error {
	if c != nil {
		return nil
	}
	return f.Sync()
}

// The device operations a scheduled fault intercepts.
const (
	OpRead  = fault.DiskRead
	OpWrite = fault.DiskWrite
)

// Fault is one scheduled device fault. The zero Page matches any page;
// Skip lets that many matching operations through before the fault
// fires; a transient fault clears after firing once, a Permanent one
// keeps firing on every subsequent match. For writes, TornFraction > 0
// persists that fraction of the page before failing — the classic torn
// write, leaving the stored page half-old half-new.
type Fault struct {
	Op           fault.Op
	Page         PageID  // NilPage matches any page
	Skip         int     // matching operations to let through first
	Permanent    bool    // keep firing after the first hit
	TornFraction float64 // writes only: fraction of buf persisted before the failure
}

// FaultStats counts injected faults by kind; WriteFaults includes the
// torn ones.
type FaultStats struct {
	ReadFaults  uint64
	WriteFaults uint64
	TornWrites  uint64
}

// FaultInjector wraps a Device and fails its reads and writes as a
// fault.Schedule decides, so every storage error path is testable.
// Faults are either scheduled explicitly (Schedule) or drawn from the
// schedule's seeded source (FailProbabilistically); both are
// reproducible for a fixed seed and operation order. Heal removes both,
// modelling a repaired device. Every other Device method passes
// straight through and never faults: rollback must be able to reclaim
// pages even on a sick device.
//
// A FaultInjector is safe for concurrent use.
type FaultInjector struct {
	Device
	s *fault.Schedule
}

// NewFaultInjector wraps dev, drawing its faults from s.
func NewFaultInjector(dev Device, s *fault.Schedule) *FaultInjector {
	return &FaultInjector{Device: dev, s: s}
}

// Schedule adds a fault to the schedule.
func (f *FaultInjector) Schedule(ft Fault) {
	kind := fault.Read
	if ft.Op == OpWrite {
		kind = fault.Write
		if ft.TornFraction > 0 {
			kind = fault.TornPage
		}
	}
	f.s.Add(fault.Entry{Op: ft.Op, Kind: kind, Target: uint64(ft.Page), Skip: ft.Skip, Permanent: ft.Permanent, TornFraction: ft.TornFraction})
}

// FailProbabilistically makes each read fail with probability pRead and
// each write with probability pWrite (transient: the same operation
// retried may succeed).
func (f *FaultInjector) FailProbabilistically(pRead, pWrite float64) {
	f.s.Draw(OpRead, fault.Read, pRead)
	f.s.Draw(OpWrite, fault.Write, pWrite)
}

// Heal clears every scheduled device fault and the failure
// probabilities.
func (f *FaultInjector) Heal() { f.s.Heal(OpRead, OpWrite) }

// FaultStats returns the injection counters.
func (f *FaultInjector) FaultStats() FaultStats {
	st := f.s.Stats()
	torn := st.Fired[fault.TornPage]
	return FaultStats{ReadFaults: st.Fired[fault.Read], WriteFaults: st.Fired[fault.Write] + torn, TornWrites: torn}
}

// lasting names how long a fired fault lasts, for error messages.
func lasting(e fault.Entry) string {
	if e.Permanent {
		return "permanent"
	}
	return "transient"
}

// Read implements Device, failing when a scheduled or probabilistic
// read fault fires.
func (f *FaultInjector) Read(id PageID, buf []byte) error {
	if e, ok := f.s.Fire(OpRead, uint64(id)); ok {
		return fmt.Errorf("storage: Read(%v): %s %w", id, lasting(e), ErrInjectedFault)
	}
	return f.Device.Read(id, buf)
}

// Write implements Device, failing when a scheduled or probabilistic
// write fault fires. A torn fault persists a prefix of buf before
// reporting the failure.
func (f *FaultInjector) Write(id PageID, buf []byte) error {
	return f.WriteLSN(id, buf, 0)
}

// WriteLSN implements LSNWriter, forwarding the LSN to the inner device
// when it supports LSN-stamped writes (dropping it otherwise) and
// applying the same fault schedule as Write. (Crash simulation is the
// inner FileDisk's: see FileDisk.SetCrashpoint.)
func (f *FaultInjector) WriteLSN(id PageID, buf []byte, lsn uint64) error {
	e, ok := f.s.Fire(OpWrite, uint64(id))
	if !ok {
		return f.innerWrite(id, buf, lsn)
	}
	if e.TornFraction > 0 {
		// Persist a prefix of the new content over the old page, then fail.
		cur := make([]byte, f.Device.PageSize())
		if err := f.Device.Read(id, cur); err == nil {
			n := min(int(e.TornFraction*float64(len(buf))), len(buf))
			copy(cur[:n], buf[:n])
			_ = f.innerWrite(id, cur, lsn)
		}
		return fmt.Errorf("storage: Write(%v): torn after %d%%: %s %w", id, int(e.TornFraction*100), lasting(e), ErrInjectedFault)
	}
	return fmt.Errorf("storage: Write(%v): %s %w", id, lasting(e), ErrInjectedFault)
}

// innerWrite forwards a write to the wrapped device, keeping the LSN
// when the device understands it.
func (f *FaultInjector) innerWrite(id PageID, buf []byte, lsn uint64) error {
	if lw, ok := f.Device.(LSNWriter); ok {
		return lw.WriteLSN(id, buf, lsn)
	}
	return f.Device.Write(id, buf)
}

// Sync forwards to the wrapped device when it is durable; syncing a
// purely simulated device is a no-op.
func (f *FaultInjector) Sync() error {
	if s, ok := f.Device.(Syncer); ok {
		return s.Sync()
	}
	return nil
}
