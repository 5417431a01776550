package storage

import (
	"errors"
	"sync"
	"testing"
)

func TestShardCountSelection(t *testing.T) {
	d := NewDisk(64)
	// Small bounded pools stay single-shard so eviction order is exact.
	for _, cap := range []int{1, 2, 3, 8, 15} {
		if n := NewBufferPool(d, cap, LRU).NumShards(); n != 1 {
			t.Errorf("capacity %d: %d shards, want 1", cap, n)
		}
	}
	// Explicit shard counts are honored (rounded to a power of two) and
	// never exceed a bounded capacity.
	if n := NewBufferPoolShards(d, 0, LRU, 8).NumShards(); n != 8 {
		t.Errorf("explicit 8 shards: got %d", n)
	}
	if n := NewBufferPoolShards(d, 0, LRU, 5).NumShards(); n != 8 {
		t.Errorf("explicit 5 shards: got %d, want rounded to 8", n)
	}
	if n := NewBufferPoolShards(d, 4, LRU, 16).NumShards(); n != 4 {
		t.Errorf("capacity 4 with 16 shards: got %d, want clamped to 4", n)
	}
}

func TestShardCapacityDistribution(t *testing.T) {
	d := NewDisk(64)
	pool := NewBufferPoolShards(d, 10, LRU, 4)
	total := 0
	for _, s := range pool.shards {
		if s.capacity < 2 || s.capacity > 3 {
			t.Errorf("shard capacity %d outside [2,3]", s.capacity)
		}
		total += s.capacity
	}
	if total != 10 {
		t.Errorf("shard capacities sum to %d, want 10", total)
	}

	// An unbounded pool has unbounded shards.
	for _, s := range NewBufferPoolShards(d, 0, LRU, 4).shards {
		if s.capacity != 0 {
			t.Errorf("unbounded pool has shard capacity %d", s.capacity)
		}
	}
}

func TestShardStatsSumToPoolStats(t *testing.T) {
	d := NewDisk(64)
	pool := NewBufferPoolShards(d, 0, LRU, 4)
	var ids []PageID
	for i := 0; i < 64; i++ {
		ids = append(ids, d.Allocate())
	}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			f, err := pool.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			f.Unpin()
		}
	}
	var sum BufferStats
	nonEmpty := 0
	for _, st := range pool.ShardStats() {
		if st.LogicalAccesses > 0 {
			nonEmpty++
		}
		sum.add(st)
	}
	if got := pool.Stats(); sum != got {
		t.Errorf("shard stats sum %+v != pool stats %+v", sum, got)
	}
	if nonEmpty < 2 {
		t.Errorf("only %d shards saw traffic; hash is not spreading pages", nonEmpty)
	}
	pool.ResetStats()
	var zero BufferStats
	for i, st := range pool.ShardStats() {
		if st != zero {
			t.Errorf("shard %d stats not reset: %+v", i, st)
		}
	}
}

func TestShardedEvictionStaysWithinCapacity(t *testing.T) {
	for _, policy := range []ReplacementPolicy{LRU} {
		d := NewDisk(64)
		pool := NewBufferPoolShards(d, 32, policy, 4)
		for i := 0; i < 200; i++ {
			f, err := pool.Get(d.Allocate())
			if err != nil {
				t.Fatalf("%v: %v", policy, err)
			}
			f.Data()[0] = byte(i)
			f.MarkDirty()
			f.Unpin()
		}
		if r := pool.Resident(); r > 32 {
			t.Errorf("%v: resident %d exceeds capacity 32", policy, r)
		}
		if pool.Stats().Evictions == 0 {
			t.Errorf("%v: no evictions despite overflow", policy)
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedPoolConcurrentStress drives every pool entry point from
// many goroutines at once under -race: pins of overlapping page sets,
// fresh allocations, discards of retired pages, flushes and stats
// snapshots. The assertions are structural (no errors besides legal
// pinned-discard conflicts, all data readable afterwards); the real
// check is the race detector. The pool latches its own state, never a
// page's contents — in production Partition.mu/Index.mu do that — so
// the test brings that latch itself: content writers and FlushAll
// (which copies frame bytes) exclusive, content readers shared.
func TestShardedPoolConcurrentStress(t *testing.T) {
	d := NewDisk(64)
	pool := NewBufferPoolShards(d, 64, LRU, 8)
	var content sync.RWMutex
	var ids []PageID
	for i := 0; i < 128; i++ {
		ids = append(ids, d.Allocate())
	}

	const workers = 8
	const rounds = 300
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 5 {
				case 0, 1, 2: // pin an existing page, touch it, unpin
					id := ids[(w*rounds+i*7)%len(ids)]
					f, err := pool.Get(id)
					if err != nil {
						errc <- err
						return
					}
					content.RLock()
					_ = f.Data()[0]
					content.RUnlock()
					f.Unpin()
				case 3: // allocate and dirty a fresh page
					f, err := pool.GetNew()
					if err != nil {
						errc <- err
						return
					}
					content.Lock()
					f.Data()[0] = byte(w)
					content.Unlock()
					f.MarkDirty()
					f.Unpin()
				case 4: // flush or snapshot
					if w%2 == 0 {
						content.Lock()
						err := pool.FlushAll()
						content.Unlock()
						if err != nil {
							errc <- err
							return
						}
					} else {
						_ = pool.Stats()
						_ = pool.ShardStats()
						_ = pool.Resident()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Discards of unpinned pages race against nothing now; all must
	// succeed, and the data must still be on disk afterwards.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := pool.Discard(id); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	for _, id := range ids {
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedPoolConcurrentUndo exercises undo capture from concurrent
// reader pins across shards while a writer mutates under a transaction,
// then rolls back — the transactional-maintenance pattern. Page
// contents are latched by the test, as in the stress test above.
func TestShardedPoolConcurrentUndo(t *testing.T) {
	d := NewDisk(64)
	pool := NewBufferPoolShards(d, 0, LRU, 8)
	var content sync.RWMutex
	var ids []PageID
	for i := 0; i < 32; i++ {
		id := d.Allocate()
		f, _ := pool.Get(id)
		f.Data()[0] = 0xAA
		f.MarkDirty()
		f.Unpin()
		ids = append(ids, id)
	}

	txn, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.BeginUndo(); err == nil {
		t.Fatal("second BeginUndo accepted")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f, err := pool.Get(ids[(w+i)%len(ids)])
				if err != nil {
					return
				}
				content.RLock()
				_ = f.Data()[0]
				content.RUnlock()
				f.Unpin()
			}
		}(w)
	}

	// Writer mutates half the pages and allocates fresh ones.
	for i, id := range ids[:16] {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		content.Lock()
		f.Data()[0] = byte(i)
		content.Unlock()
		f.MarkDirty()
		f.Unpin()
	}
	var freshIDs []PageID
	for i := 0; i < 8; i++ {
		f, err := pool.GetNew()
		if err != nil {
			t.Fatal(err)
		}
		freshIDs = append(freshIDs, f.ID())
		f.MarkDirty()
		f.Unpin()
	}
	close(stop)
	wg.Wait()

	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for _, id := range ids {
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0xAA {
			t.Fatalf("page %v not rolled back: %x", id, buf[0])
		}
	}
	for _, id := range freshIDs {
		if err := d.Read(id, buf); err == nil {
			t.Fatalf("fresh page %v survived rollback", id)
		}
	}

	// The pool accepts a new transaction after the old one finished.
	txn2, err := pool.BeginUndo()
	if err != nil {
		t.Fatal(err)
	}
	txn2.Commit()
}

// TestPoolExhaustedIsTyped: a shard whose every frame is pinned cannot
// evict, and says so with an error callers can recognize — the server
// maps it to INTERNAL (transient, retryable), not to a query defect.
func TestPoolExhaustedIsTyped(t *testing.T) {
	for _, policy := range []ReplacementPolicy{LRU} {
		d := NewDisk(64)
		pool := NewBufferPoolShards(d, 4, policy, 1)
		var pinned []*Frame
		for i := 0; i < 4; i++ {
			f, err := pool.Get(d.Allocate())
			if err != nil {
				t.Fatalf("%v: %v", policy, err)
			}
			pinned = append(pinned, f)
		}
		extra := d.Allocate()
		if _, err := pool.Get(extra); !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("%v: Get with every frame pinned = %v, want ErrPoolExhausted", policy, err)
		}
		pinned[0].Unpin()
		f, err := pool.Get(extra)
		if err != nil {
			t.Fatalf("%v: Get after an unpin: %v", policy, err)
		}
		f.Unpin()
		for _, f := range pinned[1:] {
			f.Unpin()
		}
	}
}
