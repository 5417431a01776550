// Package fault is the one fault schedule behind the repository's
// fault injectors — storage.FaultInjector (page reads and writes),
// storage.Crashpoint (a kill at a physical file write) and
// chaos.Injector (connection accepts, reads and writes). A Schedule owns
// the entries, the seeded draws, the counters, the telemetry and the
// crash latch; an injector only turns a decision into what it does to
// its operation. Injectors sharing a Schedule draw every fault from one
// seed in the arrival order of their operations. docs/ROBUSTNESS.md,
// "Fault schedule", gives the rules Fire applies.
package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"asr/internal/telemetry"
)

// Op is the operation a fault intercepts.
type Op uint8

// The interceptable operations.
const (
	DiskRead  Op = iota // a page read through storage.FaultInjector
	DiskWrite           // a page write through storage.FaultInjector
	FileWrite           // a physical file write gated by storage.Crashpoint
	NetAccept           // an accept on a chaos listener
	NetRead             // a read on a chaos connection
	NetWrite            // a write on a chaos connection
	numOps
)

// Kind is what a fired fault does to its operation.
type Kind uint8

// The fault kinds. An op's draws are tried in this order.
const (
	Read     Kind = iota // the page read fails
	Write                // the page write fails
	TornPage             // a prefix of the page is persisted, then the write fails
	Crash                // the process is killed mid-write, a prefix persisted
	Reset                // the connection is closed and the operation fails
	Torn                 // a prefix of the frame is delivered, then the connection resets
	Stall                // the operation is delayed, then proceeds
	Refuse               // the accepted connection is closed at once
	numKinds
)

// kindNames labels each kind's <layer>_faults_injected_total{kind=…}
// series: disk and crash faults count under storage_, network faults
// (Reset onwards) under chaos_.
var kindNames = [numKinds]string{"read", "write", "torn", "crash", "reset", "torn", "stall", "refuse"}

var injected [numKinds]*telemetry.Counter

func init() {
	for k, name := range kindNames {
		layer := "storage"
		if Kind(k) >= Reset {
			layer = "chaos"
		}
		injected[k] = telemetry.Default().Counter(fmt.Sprintf("%s_faults_injected_total{kind=%q}", layer, name))
	}
}

// Entry is one scheduled fault.
type Entry struct {
	Op           Op
	Kind         Kind
	Target       uint64  // the page the fault is aimed at; 0 matches any
	Skip         int     // matching operations to let through first
	Permanent    bool    // keep firing after the first hit
	TornFraction float64 // Torn, TornPage, Crash: fraction of the write that lands
}

// Stats counts a schedule's operations by op and its fired faults by
// kind.
type Stats struct {
	Seen  [numOps]uint64
	Fired [numKinds]uint64
}

// Schedule decides the faults of any number of injectors. It is safe
// for concurrent use; the draws follow the order in which operations
// reach Fire.
type Schedule struct {
	mu      sync.Mutex
	rng     *rand.Rand
	entries []Entry
	p       [numOps][numKinds]float64 // draw probabilities
	stats   Stats
}

// New returns an empty schedule whose draws come from seed.
func New(seed int64) *Schedule {
	return &Schedule{rng: rand.New(rand.NewSource(seed))}
}

// Add appends an entry to the schedule.
func (s *Schedule) Add(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, e)
}

// Draw sets the probability p that an operation of op fails with kind
// k. p ≤ 0 never fires and takes no draw.
func (s *Schedule) Draw(op Op, k Kind, p float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p[op][k] = p
}

// Heal removes every entry and draw for the given ops, modelling a
// repaired device or network. Counters and the crash latch stay.
func (s *Schedule) Heal(ops ...Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = slices.DeleteFunc(s.entries, func(e Entry) bool { return slices.Contains(ops, e.Op) })
	for _, op := range ops {
		s.p[op] = [numKinds]float64{}
	}
}

// Stats returns a copy of the counters.
func (s *Schedule) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Crashed reports whether a Crash has fired — the latch that fails
// every later operation.
func (s *Schedule) Crashed() bool { return s.Stats().Fired[Crash] > 0 }

// Fire decides the fault for one operation of op on target. It returns
// the entry that fired — a drawn fault as an entry of its op and kind —
// and whether one did.
func (s *Schedule) Fire(op Op, target uint64) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.Fired[Crash] > 0 {
		return Entry{Op: op, Kind: Crash}, true
	}
	s.stats.Seen[op]++
	e, ok := s.match(op, target)
	if !ok {
		e, ok = s.draw(op)
	}
	if ok {
		s.stats.Fired[e.Kind]++
		injected[e.Kind].Inc()
	}
	return e, ok
}

// match applies the skip rule to the entries; s.mu must be held.
func (s *Schedule) match(op Op, target uint64) (Entry, bool) {
	for i := range s.entries {
		e := &s.entries[i]
		if e.Op != op || (e.Target != 0 && e.Target != target) {
			continue
		}
		if e.Skip > 0 {
			e.Skip--
			continue
		}
		fired := *e
		if !fired.Permanent {
			s.entries = slices.Delete(s.entries, i, i+1)
		}
		return fired, true
	}
	return Entry{}, false
}

// draw tries op's probabilistic faults in kind order; s.mu must be
// held.
func (s *Schedule) draw(op Op) (Entry, bool) {
	for k, p := range s.p[op] {
		if p <= 0 || s.rng.Float64() >= p {
			continue
		}
		e := Entry{Op: op, Kind: Kind(k)}
		if e.Kind == Torn {
			e.TornFraction = s.rng.Float64()
		}
		return e, true
	}
	return Entry{}, false
}
