package storage

import (
	"container/list"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPoolExhausted is wrapped by the error a Get or GetNew returns when
// its shard has no evictable frame: every one is pinned by a concurrent
// reader or held dirty by the active undo transaction. It is a
// transient condition of load, not a defect in the caller's request.
var ErrPoolExhausted = errors.New("buffer pool shard exhausted")

// ReplacementPolicy names the buffer pool's victim strategy. LRU is the
// only one: every pool outside this package's own tests asked for it.
// The type remains because NewBufferPool's callers spell storage.LRU.
type ReplacementPolicy int

// LRU evicts the least recently pinned unpinned frame.
const LRU ReplacementPolicy = iota

// String names the policy.
func (p ReplacementPolicy) String() string {
	if p == LRU {
		return "lru"
	}
	return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
}

// BufferStats counts buffer-pool activity. LogicalAccesses is the
// paper's cost unit when the model assumes no buffering; Misses is the
// physical page-fetch count under the configured pool size. Pins counts
// every successful pin (Get and GetNew). WriteBackErrors counts dirty
// write-backs the device rejected — the frame stays resident and dirty,
// so no data is lost, but the error is surfaced to the caller.
type BufferStats struct {
	LogicalAccesses uint64
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	WriteBacks      uint64
	WriteBackErrors uint64
	Pins            uint64
}

// add accumulates other into s (used to aggregate per-shard stats).
func (s *BufferStats) add(o BufferStats) {
	s.LogicalAccesses += o.LogicalAccesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.WriteBacks += o.WriteBacks
	s.WriteBackErrors += o.WriteBackErrors
	s.Pins += o.Pins
}

// shardCounters is one shard's BufferStats as atomics: the shard bumps
// them under its mutex, Stats and ShardStats read them without it — a
// dirty victim's write-back holds a shard's mutex across device I/O,
// and the query engine snapshots the pool twice per request. Each
// method is one pool event: the shard's counter and the process-wide
// registry series together.
type shardCounters struct {
	logical, hits, misses, evictions, writeBacks, writeBackErrs, pins atomic.Uint64
}

func (c *shardCounters) access() { c.logical.Add(1) }
func (c *shardCounters) hit()    { c.hits.Add(1); telPoolHits.Inc() }
func (c *shardCounters) miss()   { c.misses.Add(1); telPoolMisses.Inc() }
func (c *shardCounters) pin()    { c.pins.Add(1); telPoolPins.Inc() }
func (c *shardCounters) evict()  { c.evictions.Add(1); telPoolEvictions.Inc() }

// wroteBack records one dirty write-back, or the device's refusal of it.
func (c *shardCounters) wroteBack(err error) {
	if err != nil {
		c.writeBackErrs.Add(1)
		telPoolWriteBackErrs.Inc()
		return
	}
	c.writeBacks.Add(1)
	telPoolWriteBacks.Inc()
}

func (c *shardCounters) reset() {
	for _, n := range []*atomic.Uint64{&c.logical, &c.hits, &c.misses, &c.evictions, &c.writeBacks, &c.writeBackErrs, &c.pins} {
		n.Store(0)
	}
}

func (c *shardCounters) snapshot() BufferStats {
	return BufferStats{
		LogicalAccesses: c.logical.Load(),
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		WriteBacks:      c.writeBacks.Load(),
		WriteBackErrors: c.writeBackErrs.Load(),
		Pins:            c.pins.Load(),
	}
}

type frame struct {
	id      PageID
	data    []byte
	pins    int
	dirty   bool
	loading bool          // admitted by a miss whose device read is in flight
	err     error         // that read's failure, for the Gets waiting on it
	lsn     uint64        // LSN of the commit covering the dirty bytes
	lruElem *list.Element // position in the shard's LRU queue
	handle  Frame         // what every pin hands out: immutable, so shared
}

// Frame is a pinned page in the buffer pool. Callers must Unpin it when
// done and MarkDirty after mutating Data. Every pin of a resident page
// returns the same handle — it carries no per-pin state, so pinning
// allocates nothing — and each Unpin releases one pin.
//
// Data's bytes belong to the pool, not to the caller: on a bounded pool
// an evicted frame's buffer is reused for the next page the shard
// reads, so a slice of Data kept past Unpin may come to alias another
// page. Copy what must outlive the pin.
//
// Pinned frames may be shared by concurrent readers; the page bytes
// themselves are not synchronized by the pool, so writers to Data must
// hold a higher-level lock (in this repository: the owning partition's
// or segment's write lock) that excludes readers of the same page.
type Frame struct {
	pool *BufferPool
	f    *frame
}

// ID returns the framed page id.
func (fr *Frame) ID() PageID { return fr.f.id }

// Data returns the page bytes; valid only while the frame is pinned.
func (fr *Frame) Data() []byte { return fr.f.data }

// MarkDirty records that the page must be written back on eviction or
// flush. Safe for concurrent use.
func (fr *Frame) MarkDirty() {
	s := fr.pool.shardOf(fr.f.id)
	s.mu.Lock()
	fr.f.dirty = true
	s.mu.Unlock()
}

// Unpin releases the caller's pin. Safe for concurrent use.
func (fr *Frame) Unpin() {
	s := fr.pool.shardOf(fr.f.id)
	s.mu.Lock()
	if fr.f.pins > 0 {
		fr.f.pins--
	}
	s.mu.Unlock()
}

// shard is one lock stripe of the pool: its own frame table, LRU queue
// and capacity slice, guarded by one mutex. Pages are
// distributed over shards by a page-id hash, so pins of unrelated pages
// — concurrent queries descending different subtrees, a concurrent
// index build — proceed without contending on a single pool mutex.
// A miss reads its page with mu released; loaded is broadcast, under
// mu, each time such a read ends.
type shard struct {
	pool     *BufferPool
	mu       sync.Mutex
	loaded   sync.Cond // L is &mu
	capacity int       // frames this shard may hold; 0 = unbounded
	frames   map[PageID]*frame
	queue    *list.List // LRU order (front = coldest)
	stats    shardCounters
}

// BufferPool caches disk pages with pin/unpin semantics and LRU
// replacement, striped over N independently locked shards (page-id
// hash). A capacity of 0 means unbounded (every page stays resident;
// physical reads then count each page once); a positive capacity is
// divided across the shards, each running its own eviction list, so
// global replacement order is approximate — per-shard exact.
//
// A BufferPool is safe for concurrent use: each shard's frame table,
// LRU queue and pin counts are guarded by that shard's mutex, and the
// activity counters are per-shard atomics (the only copy — Stats sums
// them), so Stats never blocks page traffic. The measurement helpers ResetStats and DropClean
// change global state and are meant for single-threaded experiment
// harnesses, not for use while other goroutines hold pins.
type BufferPool struct {
	dev      Device
	capacity int
	shards   []*shard
	shift    uint // 64 - log2(len(shards)), for the Fibonacci hash

	undo atomic.Pointer[UndoTxn] // active undo transaction, nil outside maintenance
	wal  atomic.Pointer[WAL]     // write-ahead log; nil for purely in-memory pools

	spareMu sync.Mutex // guards spare; no other lock is taken under it
	spare   [][]byte   // pre-image buffers of finished undo transactions, ≤ undoSpareMax
}

// maxShards caps the automatic stripe count; minShardFrames is the
// smallest per-shard capacity automatic sharding will accept — below
// it, striping a bounded pool would distort eviction behaviour more
// than the saved contention is worth, so small pools stay single-shard
// (and keep the exact replacement semantics the eviction tests assert).
const (
	maxShards      = 16
	minShardFrames = 8
)

// autoShards picks the stripe count for NewBufferPool: the next power of
// two ≥ GOMAXPROCS, capped at maxShards, and reduced until every shard
// of a bounded pool holds at least minShardFrames frames.
func autoShards(capacity int) int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	n = 1 << bits.Len(uint(n-1)) // next power of two (1 → 1)
	if n > maxShards {
		n = maxShards
	}
	if capacity > 0 {
		for n > 1 && capacity/n < minShardFrames {
			n >>= 1
		}
	}
	return n
}

// NewBufferPool creates a pool over a page device with the given frame
// capacity (the policy can only be LRU). The shard count is chosen
// automatically (one stripe per core up to 16, single-shard for small
// bounded pools); use NewBufferPoolShards to fix it.
func NewBufferPool(dev Device, capacity int, policy ReplacementPolicy) *BufferPool {
	return NewBufferPoolShards(dev, capacity, policy, 0)
}

// NewBufferPoolShards creates a pool with an explicit shard count
// (rounded up to a power of two, capped at the capacity when bounded;
// ≤ 0 selects automatically).
func NewBufferPoolShards(dev Device, capacity int, _ ReplacementPolicy, shards int) *BufferPool {
	if shards <= 0 {
		shards = autoShards(capacity)
	}
	if capacity > 0 && shards > capacity {
		shards = capacity
	}
	shards = 1 << bits.Len(uint(shards-1)) // power of two for the hash
	b := &BufferPool{
		dev:      dev,
		capacity: capacity,
		shards:   make([]*shard, shards),
		shift:    uint(64 - bits.TrailingZeros(uint(shards))),
	}
	if shards == 1 {
		b.shift = 64
	}
	base, rem := 0, 0
	if capacity > 0 {
		base, rem = capacity/shards, capacity%shards
	}
	for i := range b.shards {
		cap := 0
		if capacity > 0 {
			cap = base
			if i < rem {
				cap++
			}
		}
		s := &shard{
			pool:     b,
			capacity: cap,
			frames:   make(map[PageID]*frame),
			queue:    list.New(),
		}
		s.loaded.L = &s.mu
		b.shards[i] = s
	}
	return b
}

// shardOf maps a page id to its stripe by Fibonacci hashing — page ids
// are sequential, so plain modulo would stripe adjacent pages of one
// tree level perfectly but correlate with allocation patterns; the
// multiplicative hash spreads any id distribution evenly.
func (b *BufferPool) shardOf(id PageID) *shard {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	return b.shards[(uint64(id)*0x9E3779B97F4A7C15)>>b.shift]
}

// Disk returns the underlying page device.
func (b *BufferPool) Disk() Device { return b.dev }

// AttachWAL couples the pool to a write-ahead log. From then on the
// pool is no-steal (pages dirtied by the active undo transaction are
// never flushed or evicted before the transaction commits) and every
// write-back first syncs the log up to the frame's LSN — the WAL rule.
func (b *BufferPool) AttachWAL(w *WAL) { b.wal.Store(w) }

// heldByTxn reports whether a dirty frame belongs to the active undo
// transaction of a WAL-backed pool — such frames hold uncommitted
// bytes and must not reach the device (no-steal), or a crash would
// leave effects of a discarded transaction in the data file.
func (b *BufferPool) heldByTxn(id PageID) bool {
	if b.wal.Load() == nil {
		return false
	}
	t := b.undo.Load()
	return t != nil && t.touches(id)
}

// writeBack pushes one frame to the device honouring the WAL rule:
// log first (sync up to the frame's commit LSN), data page second,
// stamping the LSN into the stored page header when the device
// supports it. Must be called with the owning shard's mutex held.
func (b *BufferPool) writeBack(f *frame) error {
	if w := b.wal.Load(); w != nil && f.lsn > 0 {
		if err := w.Sync(f.lsn); err != nil {
			return err
		}
	}
	if lw, ok := b.dev.(LSNWriter); ok {
		return lw.WriteLSN(f.id, f.data, f.lsn)
	}
	return b.dev.Write(f.id, f.data)
}

// setLSN stamps a commit LSN onto a resident frame (no-op when the
// page is not resident). Called by UndoTxn.Commit after logging.
func (b *BufferPool) setLSN(id PageID, lsn uint64) {
	s := b.shardOf(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		f.lsn = lsn
	}
	s.mu.Unlock()
}

// NumShards returns the number of lock stripes.
func (b *BufferPool) NumShards() int { return len(b.shards) }

// Stats returns the pool-wide counters: the sum of the shards'. Safe
// for concurrent use and lock-free; the snapshot is internally
// consistent only when the pool is quiescent.
func (b *BufferPool) Stats() BufferStats {
	var sum BufferStats
	for _, s := range b.shards {
		sum.add(s.stats.snapshot())
	}
	return sum
}

// ShardStats returns one counter snapshot per shard, in stripe order.
func (b *BufferPool) ShardStats() []BufferStats {
	out := make([]BufferStats, len(b.shards))
	for i, s := range b.shards {
		out[i] = s.stats.snapshot()
	}
	return out
}

// ResetStats zeroes the counters (resident pages stay resident).
func (b *BufferPool) ResetStats() {
	for _, s := range b.shards {
		s.stats.reset()
	}
}

// Resident returns the number of buffered pages.
func (b *BufferPool) Resident() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// capture records the page's pre-image into the active undo
// transaction, if any. Called with the owning shard's mutex held,
// before the frame is returned to the caller.
func (b *BufferPool) capture(f *frame) {
	if t := b.undo.Load(); t != nil {
		t.capture(f.id, f.data)
	}
}

// Get pins the page into the pool, fetching it from disk on a miss.
// The device read runs with the shard's mutex released, so a query
// that misses does not stall the shard's other pages: the new frame is
// admitted pinned and loading (eviction, Discard and DropClean pass it
// by as pinned), and a Get of the same page meanwhile pins it and
// waits for that one read, sharing its error if it fails.
func (b *BufferPool) Get(id PageID) (*Frame, error) {
	s := b.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.access()
	f, ok := s.frames[id]
	if ok {
		s.stats.hit()
		f.pins++
		s.queue.MoveToBack(f.lruElem)
		for f.loading {
			s.loaded.Wait()
		}
	} else {
		s.stats.miss()
		data, err := s.makeRoom()
		if err != nil {
			return nil, err
		}
		f = &frame{id: id, data: data, pins: 1, loading: true}
		s.admit(f)
		s.mu.Unlock()
		readStart := time.Now()
		err = b.dev.Read(id, f.data)
		if err == nil {
			telPoolReadSeconds.Observe(time.Since(readStart).Seconds())
		}
		s.mu.Lock()
		f.loading, f.err = false, err
		if err != nil {
			s.dropFrame(f)
		}
		s.loaded.Broadcast()
	}
	if f.err != nil {
		return nil, f.err
	}
	b.capture(f)
	s.stats.pin()
	return &f.handle, nil
}

// GetNew allocates a fresh page on disk and pins it without a read. The
// initial fetch is still one logical access (the page must be formatted).
func (b *BufferPool) GetNew() (*Frame, error) {
	id := b.dev.Allocate()
	s := b.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.access()
	s.stats.miss()
	data, err := s.makeRoom()
	if err != nil {
		return nil, err
	}
	clear(data)
	f := &frame{id: id, data: data, pins: 1, dirty: true}
	if t := b.undo.Load(); t != nil {
		t.addFresh(id)
	}
	s.stats.pin()
	s.admit(f)
	return &f.handle, nil
}

// admit makes a new frame resident, as the most recently used; must be
// called with s.mu held.
func (s *shard) admit(f *frame) {
	f.handle = Frame{pool: s.pool, f: f}
	s.frames[f.id] = f
	f.lruElem = s.queue.PushBack(f)
}

// makeRoom returns the page buffer for a frame about to be admitted: on
// a full bounded shard the buffer of the victim it evicts, otherwise a
// fresh one. Its contents are undefined. Must be called with s.mu held.
func (s *shard) makeRoom() ([]byte, error) {
	if s.capacity > 0 && len(s.frames) >= s.capacity {
		victim, err := s.evictOne()
		if err != nil {
			return nil, err
		}
		return victim.data, nil
	}
	return make([]byte, s.pool.dev.PageSize()), nil
}

// evictOne drops the coldest evictable frame, writing it back first if
// dirty, and returns it; must be called with s.mu held.
func (s *shard) evictOne() (*frame, error) {
	b := s.pool
	victim, err := s.pickVictim()
	if err != nil {
		return nil, err
	}
	if victim.dirty {
		err := b.writeBack(victim)
		s.stats.wroteBack(err)
		if err != nil {
			// The victim stays resident and dirty — nothing is lost, the
			// caller sees the device error and the counter records it.
			return nil, fmt.Errorf("storage: write-back of %v failed: %w", victim.id, err)
		}
	}
	s.dropFrame(victim)
	s.stats.evict()
	return victim, nil
}

// pickVictim returns the coldest frame that is neither pinned nor held
// dirty by the active transaction; must be called with s.mu held.
func (s *shard) pickVictim() (*frame, error) {
	for e := s.queue.Front(); e != nil; e = e.Next() {
		f := e.Value.(*frame)
		if f.pins == 0 && !(f.dirty && s.pool.heldByTxn(f.id)) {
			return f, nil
		}
	}
	return nil, fmt.Errorf("storage: %w: all %d frames pinned or transaction-held", ErrPoolExhausted, len(s.frames))
}

// dropFrame must be called with s.mu held.
func (s *shard) dropFrame(f *frame) {
	delete(s.frames, f.id)
	s.queue.Remove(f.lruElem)
}

// Discard drops a page from the pool without writing it back — used
// when the page is being freed. Discarding a pinned page is an error;
// a non-resident page is a no-op.
func (b *BufferPool) Discard(id PageID) error {
	s := b.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		return nil
	}
	if f.pins > 0 {
		return fmt.Errorf("storage: Discard(%v): page pinned", id)
	}
	s.dropFrame(f)
	return nil
}

// FlushAll writes every dirty resident page back to disk; pages remain
// resident.
func (b *BufferPool) FlushAll() error {
	var errs []error
	for _, s := range b.shards {
		s.mu.Lock()
		err := s.flushLocked()
		s.mu.Unlock()
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// flushLocked must be called with s.mu held. Every dirty frame is
// attempted: a failed write-back leaves its frame dirty (so the data is
// retried on the next flush or eviction) and does not stop the
// remaining frames from flushing; all failures are joined and counted.
func (s *shard) flushLocked() error {
	b := s.pool
	var errs []error
	for _, f := range s.frames {
		if !f.dirty {
			continue
		}
		if b.heldByTxn(f.id) {
			// No-steal: uncommitted transaction-held bytes stay in memory
			// until the transaction's WAL commit covers them.
			continue
		}
		err := b.writeBack(f)
		s.stats.wroteBack(err)
		if err != nil {
			errs = append(errs, fmt.Errorf("storage: flush of %v failed: %w", f.id, err))
			continue
		}
		f.dirty = false
	}
	return errors.Join(errs...)
}

// DropClean empties the pool after flushing, simulating a cold cache
// for a fresh measurement run. Every shard is attempted; failures
// (write-backs the device rejected, pages still pinned — those shards
// are left intact) are joined rather than stopping at the first, so
// one sick shard does not hide the others' state. Refused while a
// WAL-backed undo transaction is active: its frames may not be
// flushed, and dropping them would lose uncommitted data.
func (b *BufferPool) DropClean() error {
	if b.wal.Load() != nil && b.undo.Load() != nil {
		return fmt.Errorf("storage: DropClean: undo transaction active")
	}
	var errs []error
	for _, s := range b.shards {
		s.mu.Lock()
		if err := s.flushLocked(); err != nil {
			s.mu.Unlock()
			errs = append(errs, err)
			continue
		}
		pinned := false
		for _, f := range s.frames {
			if f.pins > 0 {
				errs = append(errs, fmt.Errorf("storage: DropClean: page %v still pinned", f.id))
				pinned = true
				break
			}
		}
		if pinned {
			s.mu.Unlock()
			continue
		}
		s.frames = make(map[PageID]*frame)
		s.queue.Init()
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Checkpoint makes the current committed state durable and recycles
// the log: flush every dirty frame (WAL-first per frame), sync the
// device (superblock + fsync for a FileDisk), then reset the WAL —
// after which recovery starts from the data file alone. The reset
// rewrites the log's start frame in place and frees no blocks, so a
// checkpoint costs its flush and two fsyncs, not the log's length.
// Nothing is reset if any earlier step failed; the joined errors are
// returned and the log keeps its records.
//
// Safe to call with an undo transaction active: its frames are
// skipped (no-steal) and stay covered by the log they will commit to.
func (b *BufferPool) Checkpoint() error {
	start := time.Now()
	defer func() { telCheckpointSeconds.Observe(time.Since(start).Seconds()) }()
	var errs []error
	if err := b.FlushAll(); err != nil {
		errs = append(errs, err)
	}
	if s, ok := b.dev.(Syncer); ok {
		if err := s.Sync(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w := b.wal.Load()
	if w == nil {
		return nil
	}
	// With an active transaction the log still covers its eventual
	// commit; a reset would orphan those images.
	if b.undo.Load() != nil {
		telCheckpoints.Inc()
		return nil
	}
	if err := w.Reset(); err != nil {
		return err
	}
	telCheckpoints.Inc()
	return nil
}
