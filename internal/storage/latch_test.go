package storage

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedDisk holds every Read of one page until the test sends the
// result that read should have, so a test can act on the pool while the
// read is in flight. Reads of other pages pass straight through.
type gatedDisk struct {
	Device
	gate    PageID
	reads   atomic.Int32  // Reads of gate begun
	started chan struct{} // one send per Read of gate, as it begins
	release chan error    // one receive per Read of gate: its result
}

func newGatedDisk(t *testing.T, pages int) (*gatedDisk, []PageID) {
	t.Helper()
	d := NewDisk(64)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = d.Allocate()
		if err := d.Write(ids[i], []byte(strings.Repeat(string(rune('a'+i)), 64))); err != nil {
			t.Fatal(err)
		}
	}
	return &gatedDisk{Device: d, gate: ids[0], started: make(chan struct{}), release: make(chan error)}, ids
}

func (g *gatedDisk) Read(id PageID, buf []byte) error {
	if id != g.gate {
		return g.Device.Read(id, buf)
	}
	g.reads.Add(1)
	g.started <- struct{}{}
	if err := <-g.release; err != nil {
		return err
	}
	return g.Device.Read(id, buf)
}

type getResult struct {
	fr  *Frame
	err error
}

// getAsync runs pool.Get(id) on its own goroutine and delivers its
// outcome.
func getAsync(pool *BufferPool, id PageID) <-chan getResult {
	out := make(chan getResult, 1)
	go func() {
		fr, err := pool.Get(id)
		out <- getResult{fr, err}
	}()
	return out
}

// waitAccesses yields until the pool has counted n logical accesses:
// every Get counts its access under the shard mutex before it waits on
// a loading frame, so this is how a test knows its Gets are parked.
func waitAccesses(t *testing.T, pool *BufferPool, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pool.Stats().LogicalAccesses < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d logical accesses after 10 s, want %d", pool.Stats().LogicalAccesses, n)
		}
		runtime.Gosched()
	}
}

func TestPoolHitDuringBlockedRead(t *testing.T) {
	g, ids := newGatedDisk(t, 2)
	pool := NewBufferPoolShards(g, 4, LRU, 1)
	hot := ids[1]
	fr, err := pool.Get(hot)
	if err != nil {
		t.Fatal(err)
	}
	fr.Unpin()

	miss := getAsync(pool, g.gate)
	<-g.started
	hit := getAsync(pool, hot)
	select {
	case r := <-hit:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.fr.Data()[0] != 'b' {
			t.Fatalf("hit returned %q", r.fr.Data()[:1])
		}
		r.fr.Unpin()
	case <-time.After(10 * time.Second):
		g.release <- nil
		t.Fatal("a hit on a resident page waited for another page's device read")
	}
	g.release <- nil
	r := <-miss
	if r.err != nil {
		t.Fatal(r.err)
	}
	r.fr.Unpin()
}

func TestPoolConcurrentMissesShareOneRead(t *testing.T) {
	const k = 5
	g, _ := newGatedDisk(t, 1)
	pool := NewBufferPoolShards(g, 4, LRU, 1)
	results := []<-chan getResult{getAsync(pool, g.gate)}
	<-g.started
	for range k - 1 {
		results = append(results, getAsync(pool, g.gate))
	}
	waitAccesses(t, pool, k)
	g.release <- nil
	var first *Frame
	for _, c := range results {
		r := <-c
		if r.err != nil {
			t.Fatal(r.err)
		}
		if first == nil {
			first = r.fr
		}
		if r.fr != first || r.fr.Data()[0] != 'a' {
			t.Fatalf("Get returned frame %p holding %q, want %p holding 'a'", r.fr, r.fr.Data()[:1], first)
		}
	}
	if n := g.reads.Load(); n != 1 {
		t.Fatalf("%d concurrent Gets of one absent page made %d device reads, want 1", k, n)
	}
	if st := pool.Stats(); st.Misses != 1 || st.Hits != k-1 || st.Pins != k {
		t.Fatalf("stats %+v, want 1 miss, %d hits, %d pins", st, k-1, k)
	}
	for range k {
		first.Unpin()
	}
	if err := pool.Discard(g.gate); err != nil {
		t.Fatalf("page still pinned after %d unpins: %v", k, err)
	}
}

func TestPoolFailedReadReachesEveryWaiter(t *testing.T) {
	const k = 4
	errRead := errors.New("injected read failure")
	g, _ := newGatedDisk(t, 1)
	pool := NewBufferPoolShards(g, 4, LRU, 1)
	results := []<-chan getResult{getAsync(pool, g.gate)}
	<-g.started
	for range k - 1 {
		results = append(results, getAsync(pool, g.gate))
	}
	waitAccesses(t, pool, k)
	g.release <- errRead
	for _, c := range results {
		if r := <-c; !errors.Is(r.err, errRead) {
			t.Fatalf("a waiter got %v, want the read's error", r.err)
		}
	}
	if n := pool.Resident(); n != 0 {
		t.Fatalf("%d pages resident after a failed read, want 0", n)
	}
	if st := pool.Stats(); st.Pins != 0 {
		t.Fatalf("%d pins counted for failed Gets", st.Pins)
	}

	again := getAsync(pool, g.gate)
	<-g.started
	g.release <- nil
	r := <-again
	if r.err != nil {
		t.Fatal(r.err)
	}
	if n := g.reads.Load(); n != 2 {
		t.Fatalf("%d device reads, want the Get after the failure to read again", n)
	}
	r.fr.Unpin()
	if err := pool.Discard(g.gate); err != nil {
		t.Fatal(err)
	}
}

func TestPoolLoadingFrameIsPinned(t *testing.T) {
	g, ids := newGatedDisk(t, 2)
	pool := NewBufferPoolShards(g, 1, LRU, 1)
	loading := getAsync(pool, g.gate)
	<-g.started
	if _, err := pool.Get(ids[1]); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("a miss beside the only frame, loading, = %v, want ErrPoolExhausted", err)
	}
	if err := pool.Discard(g.gate); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Errorf("Discard of a loading page = %v, want it reported pinned", err)
	}
	if err := pool.DropClean(); err == nil {
		t.Error("DropClean emptied a shard whose frame is loading")
	}
	g.release <- nil
	r := <-loading
	if r.err != nil {
		t.Fatal(r.err)
	}
	r.fr.Unpin()
	fr, err := pool.Get(ids[1])
	if err != nil {
		t.Fatalf("miss after the load ended: %v", err)
	}
	fr.Unpin()
}

// TestPoolLoadRacesRollback runs misses of pages an undo transaction
// captured beside its Rollback: the restore must wait out a read in
// flight rather than compare against half-read bytes (the race detector
// reports the overlap).
func TestPoolLoadRacesRollback(t *testing.T) {
	d := NewDisk(64)
	var ids []PageID
	for range 16 {
		id := d.Allocate()
		if err := d.Write(id, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	pool := NewBufferPoolShards(d, 4, LRU, 1)
	for range 50 {
		txn, err := pool.BeginUndo()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			fr, err := pool.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				if fr, err := pool.Get(id); err == nil {
					fr.Unpin()
				}
			}
		}()
		if err := txn.Rollback(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}
