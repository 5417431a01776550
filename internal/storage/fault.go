package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
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
// either.
type Crashpoint struct {
	mu      sync.Mutex
	at      int64
	torn    float64
	writes  int64
	crashed bool
}

// NewCrashpoint schedules a crash on the at-th write (at ≤ 0: never),
// persisting torn (clamped to [0,1]) of that write's bytes.
func NewCrashpoint(at int64, torn float64) *Crashpoint {
	if torn < 0 {
		torn = 0
	}
	if torn > 1 {
		torn = 1
	}
	return &Crashpoint{at: at, torn: torn}
}

// Crashed reports whether the crashpoint has fired.
func (c *Crashpoint) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Writes returns the number of write operations observed so far.
func (c *Crashpoint) Writes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// admit gates one physical write of n bytes: it returns how many bytes
// may reach the file and ErrCrashed when the crash fires on (or fired
// before) this write.
func (c *Crashpoint) admit(n int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	c.writes++
	if c.at <= 0 || c.writes < c.at {
		return n, nil
	}
	c.crashed = true
	return int(c.torn * float64(n)), ErrCrashed
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

// FaultOp selects which device operation a scheduled fault intercepts.
type FaultOp int

// The interceptable operations.
const (
	OpRead FaultOp = iota
	OpWrite
)

// String names the operation.
func (op FaultOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(op))
	}
}

// Fault is one scheduled device fault. The zero Page matches any page;
// Skip lets that many matching operations through before the fault
// fires; a transient fault clears after firing once, a Permanent one
// keeps firing on every subsequent match. For writes, TornFraction > 0
// persists that fraction of the page before failing — the classic torn
// write, leaving the stored page half-old half-new.
type Fault struct {
	Op           FaultOp
	Page         PageID  // NilPage matches any page
	Skip         int     // matching operations to let through first
	Permanent    bool    // keep firing after the first hit
	TornFraction float64 // writes only: fraction of buf persisted before the failure
}

// FaultStats counts injected faults by kind.
type FaultStats struct {
	ReadFaults  uint64
	WriteFaults uint64
	TornWrites  uint64
}

// FaultInjector wraps a Device and fails operations on a deterministic
// schedule, so every storage error path is testable. Faults are either
// scheduled explicitly (Schedule) or drawn from a seeded RNG
// (FailProbabilistically); both are reproducible for a fixed seed and
// operation order. Heal removes all fault sources, modelling a repaired
// device.
//
// A FaultInjector is safe for concurrent use.
type FaultInjector struct {
	mu            sync.Mutex
	dev           Device
	rng           *rand.Rand
	pRead, pWrite float64
	faults        []*Fault
	stats         FaultStats
}

// NewFaultInjector wraps dev; seed drives the probabilistic mode.
func NewFaultInjector(dev Device, seed int64) *FaultInjector {
	return &FaultInjector{dev: dev, rng: rand.New(rand.NewSource(seed))}
}

// Schedule adds a fault to the schedule.
func (f *FaultInjector) Schedule(fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fc := fault
	f.faults = append(f.faults, &fc)
}

// FailProbabilistically makes each read fail with probability pRead and
// each write with probability pWrite (transient: the same operation
// retried may succeed). Drawn from the injector's seeded RNG.
func (f *FaultInjector) FailProbabilistically(pRead, pWrite float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pRead, f.pWrite = pRead, pWrite
}

// Heal clears every scheduled fault and the failure probabilities.
func (f *FaultInjector) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = nil
	f.pRead, f.pWrite = 0, 0
}

// FaultStats returns a copy of the injection counters.
func (f *FaultInjector) FaultStats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// fire decides whether the operation faults; it must be called with
// f.mu held. It returns the matched fault (nil when the operation
// should proceed normally) and whether a probabilistic fault fired.
func (f *FaultInjector) fire(op FaultOp, id PageID) (*Fault, bool) {
	for i, ft := range f.faults {
		if ft.Op != op || (ft.Page != NilPage && ft.Page != id) {
			continue
		}
		if ft.Skip > 0 {
			ft.Skip--
			return nil, false
		}
		if !ft.Permanent {
			f.faults = append(f.faults[:i], f.faults[i+1:]...)
		}
		return ft, false
	}
	p := f.pRead
	if op == OpWrite {
		p = f.pWrite
	}
	if p > 0 && f.rng.Float64() < p {
		return nil, true
	}
	return nil, false
}

// PageSize implements Device.
func (f *FaultInjector) PageSize() int { return f.dev.PageSize() }

// NumPages implements Device.
func (f *FaultInjector) NumPages() int { return f.dev.NumPages() }

// Allocate implements Device; allocations never fault.
func (f *FaultInjector) Allocate() PageID { return f.dev.Allocate() }

// Free implements Device; frees never fault (rollback must be able to
// reclaim pages even on a sick device).
func (f *FaultInjector) Free(id PageID) error { return f.dev.Free(id) }

// Stats implements Device.
func (f *FaultInjector) Stats() DiskStats { return f.dev.Stats() }

// ResetStats implements Device.
func (f *FaultInjector) ResetStats() { f.dev.ResetStats() }

// Read implements Device, failing when a scheduled or probabilistic
// read fault fires.
func (f *FaultInjector) Read(id PageID, buf []byte) error {
	f.mu.Lock()
	ft, prob := f.fire(OpRead, id)
	if ft != nil || prob {
		f.stats.ReadFaults++
		kind := "transient"
		if ft != nil && ft.Permanent {
			kind = "permanent"
		}
		f.mu.Unlock()
		return fmt.Errorf("storage: Read(%v): %s %w", id, kind, ErrInjectedFault)
	}
	f.mu.Unlock()
	return f.dev.Read(id, buf)
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
	f.mu.Lock()
	ft, prob := f.fire(OpWrite, id)
	if ft == nil && !prob {
		f.mu.Unlock()
		return f.innerWrite(id, buf, lsn)
	}
	f.stats.WriteFaults++
	kind := "transient"
	torn := 0.0
	if ft != nil {
		if ft.Permanent {
			kind = "permanent"
		}
		torn = ft.TornFraction
	}
	if torn > 0 {
		f.stats.TornWrites++
	}
	f.mu.Unlock()
	if torn > 0 {
		// Persist a prefix of the new content over the old page, then fail.
		cur := make([]byte, f.dev.PageSize())
		if err := f.dev.Read(id, cur); err == nil {
			n := int(torn * float64(len(buf)))
			if n > len(buf) {
				n = len(buf)
			}
			copy(cur[:n], buf[:n])
			_ = f.innerWrite(id, cur, lsn)
		}
		return fmt.Errorf("storage: Write(%v): torn after %d%%: %s %w", id, int(torn*100), kind, ErrInjectedFault)
	}
	return fmt.Errorf("storage: Write(%v): %s %w", id, kind, ErrInjectedFault)
}

// innerWrite forwards a write to the wrapped device, keeping the LSN
// when the device understands it.
func (f *FaultInjector) innerWrite(id PageID, buf []byte, lsn uint64) error {
	if lw, ok := f.dev.(LSNWriter); ok {
		return lw.WriteLSN(id, buf, lsn)
	}
	return f.dev.Write(id, buf)
}

// Sync forwards to the wrapped device when it is durable; syncing a
// purely simulated device is a no-op.
func (f *FaultInjector) Sync() error {
	if s, ok := f.dev.(Syncer); ok {
		return s.Sync()
	}
	return nil
}
