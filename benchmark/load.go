package main

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	"asr/internal/asr"
	"asr/internal/server/client"
	"asr/internal/server/wire"
	"asr/internal/storage"
)

// counters is a snapshot of every layer's existing counters; per-layer
// count metrics are deltas between two snapshots.
type counters struct {
	pool storage.BufferStats
	wal  storage.WALStats
	disk storage.DiskStats
	mgr  asr.ManagerStats
	srv  wire.StatsResult
}

func (d *db) counters() counters {
	c := counters{pool: d.pool.Stats(), disk: d.pool.Disk().Stats(), mgr: d.mgr.Stats(), srv: d.srv.Stats()}
	if d.wal != nil {
		c.wal = d.wal.Stats()
	}
	return c
}

// cpuTime is the CPU time, user and system, this process has used: the
// server, the engine and storage under it, the garbage collector, and
// the load generator itself (whose code is the same on every commit).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// lateLimit is how late an open-loop operation may start before it
// counts as failed.
const lateLimit = time.Second

// load is one timed run of a workload against an open database: warm-up,
// then a measured interval cut into slices. Reads go over loopback TCP
// through the wire client; writes are in-process calls on the object
// base (gomd has no mutation message), maintained by the registered
// Maintainers into the WAL-attached pool.
type load struct {
	sp   spec
	d    *db
	qs   *querySet
	want []answer // nil: responses race a writer and need only be typed-OK
	tr   *tracer  // nil: untraced; else spans are recorded in alternate traceWindows

	begin, end    time.Time // the measured interval
	reads, writes *recorder

	mu                    sync.Mutex
	queue, late           hist // trailer queue_us; how late the open-loop writer started
	trailers              int  // responses whose trailer was accounted
	spanned, unspanned    hist // primary-op latency inside and outside the traced windows
	bytes, objects        uint64
	attempted, failed     int
	firstErr              error
	checkpoints           int
	checkpointTime        time.Duration
	countBefore, countEnd counters
	cpuBefore, cpuEnd     time.Duration // process CPU time at the interval's ends
}

// runLoad drives the workload's traffic for warm + measure and returns
// the filled load; failed operations are counted in it, not returned. A
// nil ws runs the readers alone (the interference baseline).
func runLoad(sp spec, d *db, qs *querySet, want []answer, seed int64, warm, measure time.Duration, tr *tracer, ws *writeStream) (*load, error) {
	if err := d.dial(sp.readers); err != nil {
		return nil, err
	}
	start := time.Now()
	l := &load{sp: sp, d: d, qs: qs, want: want, tr: tr,
		begin: start.Add(warm), end: start.Add(warm + measure)}
	l.reads = newRecorder(l.begin, measure)
	l.writes = newRecorder(l.begin, measure)

	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	run(func() {
		time.Sleep(time.Until(l.begin))
		l.countBefore, l.cpuBefore = d.counters(), cpuTime()
		time.Sleep(time.Until(l.end))
		l.countEnd, l.cpuEnd = d.counters(), cpuTime()
	})
	for lane := 0; lane < sp.readers; lane++ {
		rs := newReadStream(sp, qs, seed, lane)
		c := d.conn[lane]
		run(func() { l.closedReader(c, rs) })
	}
	if ws != nil {
		run(func() { l.writer(start, ws) })
	}
	wg.Wait()
	return l, nil
}

// traceWindow is how long tracing stays on, then off, through a traced
// run. Both halves of the comparison come from the same seconds of the
// same run, so machine drift cancels out of the tracing overhead.
const traceWindow = 100 * time.Millisecond

// span records a primary operation's span if it was due in a traced
// window, and files its latency on the matching side of the comparison.
// Must be called with l.mu held.
func (l *load) span(name string, op int, due, done time.Time) {
	if l.tr == nil || due.Before(l.begin) {
		return
	}
	if (due.Sub(l.begin)/traceWindow)%2 == 1 {
		l.unspanned.record(done.Sub(due))
		return
	}
	l.tr.add(name, op, "", due, done)
	l.spanned.record(done.Sub(due))
}

// note accounts one finished operation issued at issued.
func (l *load) note(issued time.Time, err error) {
	if issued.Before(l.begin) {
		if err != nil && l.firstErr == nil {
			l.firstErr = fmt.Errorf("during warm-up: %w", err)
		}
		return
	}
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// read sends one query, issued at due, and checks the response.
func (l *load) read(c *client.Client, qi int, due time.Time, op int) {
	res, err := c.Query(context.Background(), l.qs.ops[qi].sql)
	done := time.Now()
	switch {
	case err != nil:
		err = fmt.Errorf("read %q: %w", l.qs.ops[qi].sql, err)
	case l.want != nil && !l.want[qi].equal(res.Values, res.Plan):
		err = fmt.Errorf("read %q: wire answer %q / %q differs from the in-process oracle's %q / %q",
			l.qs.ops[qi].sql, res.Values, res.Plan, l.want[qi].values, l.want[qi].plan)
	}
	l.reads.record(due, done)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.span("load.read", op, due, done)
	l.note(due, err)
	if err == nil && res.Trailer != nil && !due.Before(l.begin) {
		l.trailers++
		l.queue.record(time.Duration(res.Trailer.QueueUS) * time.Microsecond)
		l.bytes += uint64(res.Trailer.BytesIn + res.Trailer.BytesOut)
		l.objects += res.Trailer.Objects
	}
}

// closedReader is one closed-loop client: the next request leaves when
// the previous response has arrived.
func (l *load) closedReader(c *client.Client, rs *readStream) {
	for op := 0; ; op++ {
		now := time.Now()
		if !now.Before(l.end) {
			return
		}
		l.read(c, rs.next(), now, op)
	}
}

// writer is the single in-process writer: closed loop, or open loop at
// the workload's update rate. Every checkpointEvery updates it
// checkpoints the pool (flush, device sync, log truncation); the
// trigger is a count, so the same stream checkpoints at the same places.
func (l *load) writer(start time.Time, ws *writeStream) {
	var interval time.Duration
	if l.sp.writeRate > 0 {
		interval = time.Duration(float64(time.Second) / l.sp.writeRate)
	}
	for op := 0; ; op++ {
		due := time.Now()
		if interval > 0 {
			due = start.Add(time.Duration(op) * interval)
			time.Sleep(time.Until(due))
		}
		if !due.Before(l.end) {
			return
		}
		w := ws.next()
		began := time.Now()
		err := w.apply(l.d.ob)
		done := time.Now()
		if err == nil && began.Sub(due) > lateLimit {
			err = fmt.Errorf("update started %v after it was due", began.Sub(due))
		}
		if err != nil {
			err = fmt.Errorf("update %s: %w", w, err)
		}
		l.writes.record(due, done)
		l.mu.Lock()
		if l.sp.readers == 0 {
			l.span("load.write", op, due, done)
		}
		l.note(due, err)
		if interval > 0 && !due.Before(l.begin) {
			l.late.record(began.Sub(due))
		}
		l.mu.Unlock()
		if (op+1)%l.sp.checkpointEvery == 0 {
			t0 := time.Now()
			err := l.d.pool.Checkpoint()
			l.mu.Lock()
			if !t0.Before(l.begin) {
				l.checkpoints++
				l.checkpointTime += time.Since(t0)
			}
			if err != nil && l.firstErr == nil {
				l.firstErr = fmt.Errorf("checkpoint: %w", err)
			}
			l.mu.Unlock()
		}
	}
}

// primary is the recorder of the workload's primary operation.
func (l *load) primary() *recorder {
	if l.sp.readers == 0 {
		return l.writes
	}
	return l.reads
}
