package fault

import (
	"sync"
	"testing"
)

// TestScheduleConcurrentFire: goroutines firing on one schedule lose no
// operation and no fault — the per-kind counters sum to the faults Fire
// returned, and the per-op counters are exact.
func TestScheduleConcurrentFire(t *testing.T) {
	s := New(1)
	s.Draw(DiskRead, Read, 0.2)
	s.Draw(NetWrite, Reset, 0.1)
	s.Draw(NetWrite, Torn, 0.05)
	s.Add(Entry{Op: DiskWrite, Kind: Write, Skip: 10, Permanent: true, Target: 2})
	s.Add(Entry{Op: NetRead, Kind: Stall, Skip: 3})
	ops := []Op{DiskRead, DiskWrite, NetRead, NetWrite}
	const workers, perWorker = 8, 400

	var (
		mu       sync.Mutex
		returned [numKinds]uint64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine [numKinds]uint64
			for i := 0; i < perWorker; i++ {
				if e, ok := s.Fire(ops[(w+i)%len(ops)], uint64(i%3)); ok {
					mine[e.Kind]++
				}
			}
			mu.Lock()
			for k, n := range mine {
				returned[k] += n
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Fired != returned {
		t.Fatalf("fired per kind %v, but Fire returned %v", st.Fired, returned)
	}
	for _, op := range ops {
		if want := uint64(workers * perWorker / len(ops)); st.Seen[op] != want {
			t.Fatalf("op %d seen %d times, want %d", op, st.Seen[op], want)
		}
	}
	if st.Fired[Read] == 0 || st.Fired[Write] == 0 || st.Fired[Stall] != 1 || st.Fired[Reset] == 0 {
		t.Fatalf("fired %v: every source should have fired, the transient stall once", st.Fired)
	}
}

// TestHealScopedToOps: healing one injector's ops leaves the entries
// and draws of the others sharing the schedule.
func TestHealScopedToOps(t *testing.T) {
	s := New(1)
	s.Add(Entry{Op: DiskWrite, Kind: Write, Permanent: true})
	s.Draw(DiskRead, Read, 1)
	s.Add(Entry{Op: NetWrite, Kind: Reset, Permanent: true})
	s.Draw(NetRead, Reset, 1)
	s.Heal(DiskRead, DiskWrite)
	for _, op := range []Op{DiskRead, DiskWrite} {
		if _, ok := s.Fire(op, 0); ok {
			t.Fatalf("op %d faulted after its heal", op)
		}
	}
	for _, op := range []Op{NetRead, NetWrite} {
		if _, ok := s.Fire(op, 0); !ok {
			t.Fatalf("op %d was healed along with the disk", op)
		}
	}
}
