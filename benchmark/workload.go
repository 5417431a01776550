package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spec is one workload: the fixture it runs on and the traffic it sends.
type spec struct {
	name string
	why  string

	scale   int  // server.DemoDatabase scale (1 ≈ 46 objects)
	durable bool // FileDisk + WAL + manifest, reopened; else in-memory
	frames  int  // buffer-pool capacity in pages; 0 = unbounded

	readers     int    // closed-loop client connections carrying reads; 0 = no reads
	readMix     [3]int // percent indexed / scan / forward
	indexedPool int    // distinct queries per kind
	scanPool    int
	forwardPool int

	writer          bool    // one in-process writer
	writeRate       float64 // > 0: open loop at this many updates/s; 0: closed loop
	checkpointEvery int     // pool.Checkpoint() every this many updates

	replayOps int // operations each traced replay level runs
}

// saturating is the connection count of the read-only workloads: two
// closed-loop clients per CPU. With fewer, cores fall idle between
// requests and every wake-up adds scheduling latency that varies from
// run to run by more than any regression bound; with the CPUs kept busy
// the same workload repeats to within a few percent.
var saturating = 2 * runtime.GOMAXPROCS(0)

// specs are the benchmark's workloads. BENCHMARK.json repeats name and
// why; README.md has the longer table.
var specs = []spec{
	{
		name:  "wire_small",
		why:   "closed loop, 2 connections per CPU, indexed queries on a 233-object in-memory base: framing, JSON, session and loopback dominate; a wire/server change shows here, an engine change must not",
		scale: 4, readers: 4, readMix: [3]int{100, 0, 0}, indexedPool: 1 << 30,
		replayOps: 2000,
	},
	{
		name:  "read_large",
		why:   "closed loop, 2 connections per CPU, durable 59k-object base behind a 128-frame pool (index far larger than cache), 90% indexed 10% traversal: query, ASR, B+-tree, pool and FileDisk do the work",
		scale: 1024, durable: true, frames: 128,
		readers: saturating, readMix: [3]int{90, 10, 0}, indexedPool: 512, scanPool: 64,
		replayOps: 1000,
	},
	{
		name:  "write_durable",
		why:   "1 closed-loop in-process writer on a durable 15k-object base, seeded update mix, one fsync per commit, checkpoint every 2000 updates: maintenance, undo, WAL and checkpoint with wire and query idle",
		scale: 256, durable: true,
		writer: true, checkpointEvery: 2000,
		replayOps: 2000,
	},
	{
		name:  "mixed",
		why:   "the paper's section 6.4 mix: 1 closed-loop reader connection beside 1 open-loop writer at 100 updates/s on the write_durable base; maintenance holds the index write lock while queries probe it",
		scale: 256, durable: true,
		readers: 1, readMix: [3]int{80, 0, 20}, indexedPool: 512, forwardPool: 64,
		writer: true, writeRate: 100, checkpointEvery: 500,
		replayOps: 1000,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to the scale-4 fixture so the whole suite
// runs in seconds; shapes and rates stay, sizes go.
func (sp spec) smoke() spec {
	sp.scale = 4
	if sp.frames > 0 {
		sp.frames = 8
	}
	sp.replayOps = 100
	return sp
}

// options are what a pass needs besides its spec.
type options struct {
	seed    int64
	seconds float64
	out     string // directory for trace files and the scratch fixtures
}

func (o options) measure() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// warm is the unmeasured lead-in of every timed run: a tenth of the
// measured interval.
func (o options) warm() time.Duration { return o.measure() / 10 }

// passResult is one workload pass: the driver's result line.
type passResult struct {
	correct           bool
	attempted, failed int
	metrics           []measured
	notes             []string // human-readable remarks (first failure, validity)
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// pass is the state shared by the untraced and the traced pass of one
// workload.
type pass struct {
	sp   spec
	opt  options
	fx   *fixture
	work string // the durable working copy the timed runs mutate
	d    *db
	rep  *report
	res  passResult
}

func newPass(sp spec, opt options, defs []metricDef) (*pass, func(), error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(opt.out, "fixture-"+sp.name+"-")
	if err != nil {
		return nil, nil, err
	}
	p := &pass{sp: sp, opt: opt, rep: newReport(sp.name, defs), res: passResult{correct: true}}
	cleanup := func() {
		if p.d != nil {
			p.d.close()
		}
		os.RemoveAll(dir)
	}
	if p.fx, err = buildFixture(sp, dir); err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("building the %s fixture: %w", sp.name, err)
	}
	if sp.durable {
		if p.work, err = p.fx.clone("work"); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	return p, cleanup, nil
}

// reopen closes the current database (if any) and cold-opens the
// working copy again.
func (p *pass) reopen() (openTimes, error) {
	if p.d != nil {
		if err := p.d.close(); err != nil {
			return openTimes{}, err
		}
		p.d = nil
	}
	runtime.GC()
	d, t, err := p.fx.open(p.work)
	p.d = d
	return t, err
}

// timed runs the workload's traffic once and folds its failures into
// the pass result.
func (p *pass) timed(qs *querySet, want []answer, measure time.Duration, tr *tracer, ws *writeStream) (*load, error) {
	l, err := runLoad(p.sp, p.d, qs, want, p.opt.seed, p.opt.warm(), measure, tr, ws)
	if err != nil {
		return nil, err
	}
	p.res.attempted += l.attempted
	p.res.failed += l.failed
	if l.firstErr != nil {
		p.res.correct = false
		p.res.notes = append(p.res.notes, "FAILED: "+l.firstErr.Error())
	}
	return l, nil
}

// inputs builds what the timed runs send: the distinct queries with
// their expected answers (read-only workloads) and the update stream.
func (p *pass) inputs() (qs *querySet, want []answer, ws *writeStream, err error) {
	if p.sp.readers > 0 {
		qs = buildQuerySet(p.sp, p.d, p.opt.seed)
		if !p.sp.writer {
			var nonEmpty int
			if want, nonEmpty, err = oracleFor(p.d.eng, qs); err != nil {
				return nil, nil, nil, err
			}
			p.res.notes = append(p.res.notes, fmt.Sprintf("%d distinct queries, %d with non-empty answers, every response byte-compared to the in-process oracle",
				len(qs.ops), nonEmpty))
		}
	}
	if p.sp.writer {
		ws = newWriteStream(p.d.ob, p.d.levels, p.opt.seed)
	}
	return qs, want, ws, nil
}

// verifySamples is how many backward queries are compared with an
// index-less engine after a writer has quiesced.
const verifySamples = 200

// verify checks the maintained base once the writer has stopped.
func (p *pass) verify() {
	if !p.sp.writer {
		return
	}
	wrong, err := verifyMaintained(p.d, p.opt.seed, verifySamples)
	if err != nil {
		p.res.correct = false
		p.res.notes = append(p.res.notes, "FAILED: "+err.Error())
		return
	}
	p.res.attempted += verifySamples
	p.res.failed += wrong
	if wrong > 0 {
		p.res.correct = false
	}
	p.res.notes = append(p.res.notes, fmt.Sprintf("after quiescing: no index drift, maintenance OK, %d/%d sampled backward queries equal the index-less engine",
		verifySamples-wrong, verifySamples))
}

// minSetupReps cold opens are always made; more follow until
// setupBudget has been spent, so a millisecond-scale setup is the median
// of many and a half-second one of five.
const (
	minSetupReps = 5
	maxSetupReps = 101
	setupBudget  = time.Second
)

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(sp spec, opt options) (passResult, error) {
	p, cleanup, err := newPass(sp, opt, endToEnd)
	if err != nil {
		return passResult{}, err
	}
	defer cleanup()

	var setups []float64
	var spent time.Duration
	for len(setups) < minSetupReps || (spent < setupBudget && len(setups) < maxSetupReps) {
		t, err := p.reopen()
		if err != nil {
			return passResult{}, err
		}
		setups = append(setups, t.total.Seconds())
		spent += t.total
	}
	p.rep.set("setup_s", median(setups), len(setups), spreadOf(setups))
	p.rep.set("heap_mb", heapAlloc()/(1<<20), 1, 0)

	qs, want, ws, err := p.inputs()
	if err != nil {
		return passResult{}, err
	}
	l, err := p.timed(qs, want, opt.measure(), nil, ws)
	if err != nil {
		return passResult{}, err
	}
	p.verify()
	rec := l.primary()
	whole := rec.all()
	n := int(whole.n)
	rates := rec.rates()
	p50s := rec.perSlice(func(h *hist) float64 { return h.us(0.50) })
	p.rep.set("ops_per_s", median(rates), n, spreadOf(rates))
	p.rep.set("op_p50_us", median(p50s), n, spreadOf(p50s))
	p.rep.set("op_p99_us", whole.us(0.99), n, 0)
	p.rep.set("cpu_us_per_op", us(l.cpuEnd-l.cpuBefore)/float64(n), n, 0)

	p.res.metrics, err = p.rep.metrics(true)
	return p.res, err
}

// traceSetupReps cold opens give the per-step medians of the traced pass.
const traceSetupReps = 3

// runTraced measures the per-layer metrics: a timed run with span
// recording on in alternate windows (the latency difference between the
// windows is the tracing overhead; counter deltas span the whole run),
// then fixed-length replays of the stream at each layer boundary, then
// direct calls into the lower layers.
func runTraced(sp spec, opt options) (passResult, error) {
	p, cleanup, err := newPass(sp, opt, perLayer)
	if err != nil {
		return passResult{}, err
	}
	defer cleanup()
	tr := newTracer()

	heapBefore := heapAlloc()
	var steps [4][]float64
	for i := 0; i < traceSetupReps; i++ {
		t, err := p.reopen()
		if err != nil {
			return passResult{}, err
		}
		for j, d := range []time.Duration{t.recover, t.load, t.openFrom, t.start} {
			steps[j] = append(steps[j], float64(d)/1e6)
		}
	}
	heapOpen := heapAlloc()
	if sp.durable {
		p.rep.set("storage.recover_ms", median(steps[0]), traceSetupReps, 0)
		p.rep.set("dump.load_ms", median(steps[1]), traceSetupReps, 0)
		p.rep.set("asr.openfrom_ms", median(steps[2]), traceSetupReps, 0)
	}
	p.rep.set("server.start_ms", median(steps[3]), traceSetupReps, 0)

	qs, want, ws, err := p.inputs()
	if err != nil {
		return passResult{}, err
	}
	var aloneP99 float64
	if sp.readers > 0 && sp.writer {
		alone, err := p.timed(qs, want, opt.measure()/2, nil, nil)
		if err != nil {
			return passResult{}, err
		}
		aloneP99 = alone.reads.all().us(0.99)
	}
	tr.setPhase("load")
	traced, err := p.timed(qs, want, opt.measure(), tr, ws)
	if err != nil {
		return passResult{}, err
	}
	p.verify()
	if base := traced.unspanned.us(0.50); base > 0 {
		p.rep.set("trace.overhead_pct", 100*(traced.spanned.us(0.50)-base)/base, int(traced.spanned.n), 0)
	}
	p.loadMetrics(traced, aloneP99)

	if sp.readers > 0 {
		if err := p.replayReads(qs, tr); err != nil {
			return passResult{}, err
		}
		if err := p.wireMetrics(qs); err != nil {
			return passResult{}, err
		}
	}
	if err := p.fixtureMetrics(); err != nil {
		return passResult{}, err
	}
	if err := p.storageMetrics(tr); err != nil {
		return passResult{}, err
	}
	if sp.readers > 0 {
		if err := p.costQueryRatio(qs); err != nil {
			return passResult{}, err
		}
	}
	if err := p.d.close(); err != nil {
		return passResult{}, err
	}
	p.d = nil
	if sp.writer {
		if err := p.replayWrites(tr); err != nil {
			return passResult{}, err
		}
	}
	if err := p.buildMetrics(heapOpen - heapBefore); err != nil {
		return passResult{}, err
	}

	if err := tr.write(filepath.Join(opt.out, sp.name+".trace.json"), sp.name, opt.seed); err != nil {
		return passResult{}, err
	}
	p.res.metrics, err = p.rep.metrics(false)
	return p.res, err
}

// loadMetrics derives the count metrics of the traced half from counter
// deltas and trailers.
func (p *pass) loadMetrics(l *load, aloneP99 float64) {
	per := func(delta uint64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(delta) / float64(n)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set := func(name string, v float64, n int) { p.rep.set(name, v, n, 0) }

	reads, writes := l.reads.all(), l.writes.all()
	nr, nw := int(reads.n), int(writes.n)
	ops := nr + nw
	set("client.samples", float64(l.primary().all().n), ops)
	if nr > 0 {
		set("client.read_p50_us", reads.us(0.50), nr)
		set("client.read_p99_us", reads.us(0.99), nr)
		set("client.read_p999_us", reads.us(0.999), nr)
		set("client.read_max_us", float64(reads.max)/1e3, nr)
		set("server.queue_us_p99", l.queue.us(0.99), nr)
		set("wire.bytes_per_req", per(l.bytes, l.trailers), nr)
		set("query.objects_per_read", per(l.objects, l.trailers), nr)
	}
	if nw > 0 {
		set("client.write_p50_us", writes.us(0.50), nw)
		set("client.write_p99_us", writes.us(0.99), nw)
		set("client.write_max_us", float64(writes.max)/1e3, nw)
	}
	set("client.gen_late_p99_us", l.late.us(0.99), int(l.late.n))
	if aloneP99 > 0 {
		set("asr.writer_interference", reads.us(0.99)/aloneP99, nr)
	}

	a, b := l.countBefore, l.countEnd
	set("server.shed_rate", ratio(b.srv.Overloads-a.srv.Overloads, b.srv.Requests-a.srv.Requests), nr)
	set("query.index_hit_ratio", ratio(b.mgr.IndexHits-a.mgr.IndexHits, b.mgr.Queries-a.mgr.Queries), nr)
	logical := b.pool.LogicalAccesses - a.pool.LogicalAccesses
	set("storage.pool.hit_ratio", ratio(b.pool.Hits-a.pool.Hits, logical), int(logical))
	set("storage.pool.evictions_per_op", per(b.pool.Evictions-a.pool.Evictions, ops), ops)
	set("storage.pool.writebacks_per_op", per(b.pool.WriteBacks-a.pool.WriteBacks, ops), ops)
	set("storage.disk.reads_per_op", per(b.disk.Reads-a.disk.Reads, ops), ops)
	set("storage.disk.writes_per_op", per(b.disk.Writes-a.disk.Writes, ops), ops)
	set("storage.wal.commits_per_sync", ratio(b.wal.Commits-a.wal.Commits, b.wal.Syncs-a.wal.Syncs), nw)
	var retries, rollbacks uint64
	for i, ix := range b.mgr.Indexes {
		retries += ix.Retries - a.mgr.Indexes[i].Retries
		rollbacks += ix.Rollbacks - a.mgr.Indexes[i].Rollbacks
	}
	set("asr.retries", float64(retries), nw)
	set("asr.rollbacks", float64(rollbacks), nw)
	set("storage.checkpoints", float64(l.checkpoints), nw)
	if l.checkpoints > 0 {
		set("storage.checkpoint_ms", float64(l.checkpointTime)/1e6/float64(l.checkpoints), l.checkpoints)
	}
}
