package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asr/internal/asr"
	"asr/internal/btree"
	"asr/internal/costmodel"
	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server/wire"
	"asr/internal/storage"
	"asr/internal/telemetry"
)

// The traced pass measures each layer from outside: it times calls into
// the layer's existing public functions and reads its existing counters.
// Nothing here adds a span inside the program.

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replayReads runs the first replayOps reads of lane 0's stream once per
// layer boundary, top down: the wire client, the query engine (with the
// engine's own four spans captured), the ASR manager's backward probe.
// The levels are separate replays of the same operations, not one nested
// request; the metrics are per-level medians and per-op differences.
func (p *pass) replayReads(qs *querySet, tr *tracer) error {
	d, n := p.d, p.sp.replayOps
	rs := newReadStream(p.sp, qs, p.opt.seed, 0)
	order := make([]int, n)
	for i := range order {
		order[i] = rs.next()
	}
	ctx := context.Background()

	// The wire client, one request at a time. What the round trip took
	// beyond the server's own execution time (the response's trailer) is
	// loopback, framing, JSON, session and admission with nothing queued.
	tr.setPhase("replay.client")
	var overhead []float64
	for i, qi := range order {
		t0 := time.Now()
		res, err := d.conn[0].Query(ctx, qs.ops[qi].sql)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replay client.Query: %w", err)
		}
		tr.add("client.Query", i, "", t0, t1)
		if res.Trailer != nil {
			overhead = append(overhead, us(t1.Sub(t0))-float64(res.Trailer.ExecUS))
		}
	}
	p.rep.set("server.overhead_us", median(overhead), len(overhead), 0)

	tr.setPhase("replay.query")
	var parse, run, prefilter, execute, unspanned []float64
	before := d.counters()
	for i, qi := range order {
		t0 := time.Now()
		q, err := query.Parse(qs.ops[qi].sql)
		t1 := time.Now()
		if err != nil {
			return err
		}
		tr.add("query.Parse", i, "", t0, t1)
		parse = append(parse, float64(t1.Sub(t0)))
		cctx, capture := telemetry.WithCapture(ctx)
		t2 := time.Now()
		if _, err := d.eng.RunCtx(cctx, q, 1); err != nil {
			return fmt.Errorf("replay Engine.RunCtx: %w", err)
		}
		t3 := time.Now()
		tr.add("Engine.RunCtx", i, "", t2, t3)
		run = append(run, us(t3.Sub(t2)))
		var whole, children time.Duration
		for _, s := range capture.Spans() {
			parent := "query.run"
			switch s.Name {
			case "query.run":
				whole, parent = s.Duration, "Engine.RunCtx"
			case "query.prefilter":
				prefilter = append(prefilter, us(s.Duration))
				children += s.Duration
			case "query.execute":
				execute = append(execute, us(s.Duration))
				children += s.Duration
			default:
				children += s.Duration
			}
			tr.add(s.Name, i, parent, s.Start, s.Start.Add(s.Duration))
		}
		unspanned = append(unspanned, us(whole-children))
	}
	after := d.counters()
	p.rep.set("query.parse_ns", median(parse), n, 0)
	p.rep.set("query.run_us", median(run), n, 0)
	p.rep.set("query.prefilter_us", median(prefilter), len(prefilter), 0)
	p.rep.set("query.execute_us", median(execute), len(execute), 0)
	p.rep.set("query.unspanned_us", median(unspanned), n, 0)
	p.rep.set("storage.pool.logical_per_read",
		float64(after.pool.LogicalAccesses-before.pool.LogicalAccesses)/float64(n), n, 0)

	tr.setPhase("replay.asr")
	var probe []float64
	before = d.counters()
	for i, qi := range order {
		op := qs.ops[qi]
		if op.kind != readIndexed {
			continue
		}
		t0 := time.Now()
		_, err := d.mgr.QueryBackwardCtx(ctx, d.path, 0, d.path.Len(), 1, gom.String(fmt.Sprintf("L3-%d", op.k)))
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replay Manager.QueryBackwardCtx: %w", err)
		}
		tr.add("Manager.QueryBackwardCtx", i, "", t0, t1)
		probe = append(probe, us(t1.Sub(t0)))
	}
	after = d.counters()
	if len(probe) > 0 {
		var scanned uint64
		for i, ix := range after.mgr.Indexes {
			scanned += ix.RowsScanned - before.mgr.Indexes[i].RowsScanned
		}
		p.rep.set("asr.probe_us", median(probe), len(probe), 0)
		p.rep.set("asr.rows_scanned_per_probe", float64(scanned)/float64(len(probe)), len(probe), 0)
	}
	return nil
}

// wireMetrics times the frame codec directly on this workload's real
// bodies: Marshal + EncodeFrame + DecodeFrame + Unmarshal of a query and
// of its result, with no socket and no server.
func (p *pass) wireMetrics(qs *querySet) error {
	type body struct {
		q wire.Query
		r wire.Result
	}
	var bodies []body
	for i := 0; i < len(qs.ops) && len(bodies) < codecBodies; i++ {
		a, err := runOracle(p.d.eng, qs.ops[i].sql)
		if err != nil {
			return err
		}
		bodies = append(bodies, body{
			q: wire.Query{SQL: qs.ops[i].sql},
			r: wire.Result{Values: a.values, Plan: a.plan, Trailer: &wire.Trailer{TraceID: telemetry.NewTraceID().String()}},
		})
	}
	roundTrip := func(t wire.MsgType, in, out any) error {
		f, err := wire.Marshal(t, 1, in)
		if err != nil {
			return err
		}
		b, err := wire.EncodeFrame(f)
		if err != nil {
			return err
		}
		g, _, err := wire.DecodeFrame(b)
		if err != nil {
			return err
		}
		return wire.Unmarshal(g, out)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for r := 0; r < codecRounds; r++ {
		for i := range bodies {
			var q wire.Query
			var res wire.Result
			if err := roundTrip(wire.MsgQuery, bodies[i].q, &q); err != nil {
				return err
			}
			if err := roundTrip(wire.MsgResult, bodies[i].r, &res); err != nil {
				return err
			}
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	n := codecRounds * len(bodies)
	p.rep.set("wire.codec_ns_per_req", float64(elapsed)/float64(n), n, 0)
	p.rep.set("wire.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), n, 0)
	return nil
}

// fixtureMetrics reports the size and shape of what the workload runs
// on: objects, stored rows, page-file size, and the physical shape of
// every partition's two clustered trees.
func (p *pass) fixtureMetrics() error {
	d := p.d
	rows := 0
	for _, ix := range d.mgr.Stats().Indexes {
		rows += ix.Rows
	}
	p.rep.set("asr.rows", float64(rows), 1, 0)
	p.rep.set("gom.objects", float64(d.ob.Count()), 1, 0)
	fileBytes := float64(d.pool.Disk().NumPages() * d.pool.Disk().PageSize())
	if p.sp.durable {
		st, err := os.Stat(p.fx.base + ".pages")
		if err != nil {
			return err
		}
		fileBytes = float64(st.Size())
	}
	p.rep.set("storage.disk.file_mb", fileBytes/(1<<20), 1, 0)
	if rows > 0 {
		p.rep.set("storage.disk.bytes_per_row", fileBytes/float64(rows), 1, 0)
	}

	var shape btree.Stats
	for _, t := range d.trees() {
		st, err := t.ComputeStats()
		if err != nil {
			return err
		}
		shape.Height = max(shape.Height, st.Height)
		shape.LeafPages += st.LeafPages
		shape.Entries += st.Entries
		shape.UsedBytes += st.UsedBytes
		shape.UncompressedBytes += st.UncompressedBytes
	}
	p.rep.set("btree.height_max", float64(shape.Height), 1, 0)
	p.rep.set("btree.leaf_pages", float64(shape.LeafPages), 1, 0)
	p.rep.set("btree.keys_per_leaf", shape.KeysPerLeaf(), 1, 0)
	if shape.UncompressedBytes > 0 {
		p.rep.set("btree.stored_ratio", float64(shape.UsedBytes)/float64(shape.UncompressedBytes), 1, 0)
	}
	return nil
}

// trees lists the forward and backward tree of every distinct partition.
func (d *db) trees() []*btree.Tree {
	var out []*btree.Tree
	seen := map[*asr.Partition]bool{}
	for _, ix := range d.mgr.Indexes() {
		for _, pp := range ix.Partitions() {
			if !seen[pp.Part] {
				seen[pp.Part] = true
				out = append(out, pp.Part.Forward(), pp.Part.Backward())
			}
		}
	}
	return out
}

// Sample sizes of the direct calls into the lower layers.
const (
	codecBodies  = 64
	codecRounds  = 20
	treeLookups  = 2000
	treeInserts  = 2000
	poolHits     = 100000
	poolMisses   = 2000
	scratchTxns  = 200
	costSamples  = 20
	scratchTree  = "benchmark-scratch"
	scratchLog   = "scratch.wal"
	scratchPage  = storage.PageID(1)
	keysPerTree  = 256
	scratchKeyLn = 16
)

// storageMetrics calls straight into the B⁺-tree, the buffer pool, the
// page device and a scratch log, below everything the replays cover.
// These are per-call samples, not operations of the stream.
func (p *pass) storageMetrics(tr *tracer) error {
	d := p.d
	rng := newRand(p.opt.seed, saltLayers)
	trees := d.trees()
	if len(trees) == 0 {
		return nil
	}

	// B⁺-tree descent: ScanPrefix with stored keys sampled from every tree.
	type probe struct {
		t   *btree.Tree
		key []byte
	}
	var probes []probe
	for _, t := range trees {
		stride, i := max(t.Len()/keysPerTree, 1), 0
		err := t.Scan(func(k, _ []byte) bool {
			if i%stride == 0 {
				probes = append(probes, probe{t, append([]byte(nil), k...)})
			}
			i++
			return true
		})
		if err != nil {
			return err
		}
	}
	if len(probes) > 0 {
		tr.setPhase("direct.btree")
		var lookups []float64
		logical := d.pool.Stats().LogicalAccesses
		for i := 0; i < treeLookups; i++ {
			pr := probes[rng.Intn(len(probes))]
			t0 := time.Now()
			err := pr.t.ScanPrefix(pr.key, func(_, _ []byte) bool { return true })
			t1 := time.Now()
			if err != nil {
				return err
			}
			tr.add("Tree.ScanPrefix", i, "", t0, t1)
			lookups = append(lookups, us(t1.Sub(t0)))
		}
		logical = d.pool.Stats().LogicalAccesses - logical
		p.rep.set("btree.lookup_us", median(lookups), treeLookups, 0)
		p.rep.set("btree.pages_per_lookup", float64(logical)/treeLookups, treeLookups, 0)
	}

	// B⁺-tree insert: a scratch tree on the same pool, dropped afterwards.
	scratch, err := btree.New(d.pool, scratchTree)
	if err != nil {
		return err
	}
	tr.setPhase("direct.btree")
	var inserts []float64
	key := make([]byte, scratchKeyLn)
	for i := 0; i < treeInserts; i++ {
		rng.Read(key)
		t0 := time.Now()
		_, err := scratch.Insert(key, nil)
		t1 := time.Now()
		if err != nil {
			return err
		}
		tr.add("Tree.Insert", i, "", t0, t1)
		inserts = append(inserts, us(t1.Sub(t0)))
	}
	if err := scratch.Drop(); err != nil {
		return err
	}
	p.rep.set("btree.insert_us", median(inserts), treeInserts, 0)

	// Buffer pool: a resident page pinned repeatedly, then every page
	// fetched once into an emptied pool; the device read alone after that.
	root := trees[0].Root()
	t0 := time.Now()
	for i := 0; i < poolHits; i++ {
		fr, err := d.pool.Get(root)
		if err != nil {
			return err
		}
		fr.Unpin()
	}
	p.rep.set("storage.pool.get_hit_ns", float64(time.Since(t0))/poolHits, poolHits, 0)

	if err := d.pool.DropClean(); err != nil {
		return err
	}
	dev := d.pool.Disk()
	var pages []storage.PageID
	var misses []float64
	tr.setPhase("direct.pool")
	for id := storage.PageID(1); int(id) <= dev.NumPages() && len(pages) < poolMisses; id++ {
		t0 := time.Now()
		fr, err := d.pool.Get(id)
		t1 := time.Now()
		if err != nil {
			continue // a freed or never-written page
		}
		fr.Unpin()
		tr.add("BufferPool.Get(miss)", len(pages), "", t0, t1)
		pages = append(pages, id)
		misses = append(misses, us(t1.Sub(t0)))
	}
	p.rep.set("storage.pool.get_miss_us", median(misses), len(misses), 0)
	buf := make([]byte, dev.PageSize())
	var devReads []float64
	tr.setPhase("direct.disk")
	for i, id := range pages {
		t0 := time.Now()
		err := dev.Read(id, buf)
		t1 := time.Now()
		if err != nil {
			return err
		}
		tr.add("Device.Read", i, "", t0, t1)
		devReads = append(devReads, us(t1.Sub(t0)))
	}
	p.rep.set("storage.disk.read_us", median(devReads), len(devReads), 0)

	// WAL: one-image transactions on a scratch log in the same directory.
	if !p.sp.durable {
		return nil
	}
	w, err := storage.OpenWAL(filepath.Join(p.fx.dir, scratchLog))
	if err != nil {
		return err
	}
	defer w.Close()
	tr.setPhase("direct.wal")
	var commits []float64
	for i := 0; i < scratchTxns; i++ {
		t0 := time.Now()
		txn := w.Begin()
		if _, err := w.AppendPageImage(txn, scratchPage, buf); err != nil {
			return err
		}
		if err := w.Commit(txn); err != nil {
			return err
		}
		t1 := time.Now()
		tr.add("WAL.Commit", i, "", t0, t1)
		commits = append(commits, us(t1.Sub(t0)))
	}
	p.rep.set("storage.wal.commit_us", median(commits), scratchTxns, 0)
	return nil
}

// costQueryRatio is measured ÷ predicted index pages (eq. 35) over
// sampled indexed queries, via the engine's own ExplainAnalyze. It
// empties the pool, so it runs last on the open database.
func (p *pass) costQueryRatio(qs *querySet) error {
	var ratios []float64
	for _, qi := range qs.byKind[readIndexed] {
		if len(ratios) == costSamples {
			break
		}
		q, err := query.Parse(qs.ops[qi].sql)
		if err != nil {
			return err
		}
		a, err := p.d.eng.ExplainAnalyze(context.Background(), q)
		if err != nil {
			return err
		}
		if r := a.IndexCalibration(); r > 0 {
			ratios = append(ratios, r)
		}
	}
	p.rep.set("costmodel.query_ratio", median(ratios), len(ratios), 0)
	return nil
}

// replayWrites applies the first replayOps updates of the stream twice
// from the pristine fixture: on a fresh durable copy with the
// Maintainers registered (one writer, no timers, no checkpoint — so the
// page, record and fsync counts repeat exactly), and on an index-less
// copy of the same objects. The per-op difference is maintenance.
func (p *pass) replayWrites(tr *tracer) error {
	n := p.sp.replayOps
	base, err := p.fx.clone("replay")
	if err != nil {
		return err
	}
	d, _, err := p.fx.open(base)
	if err != nil {
		return err
	}
	defer d.close()
	ws := newWriteStream(d.ob, d.levels, p.opt.seed)
	ops := make([]writeOp, n)
	maintained := make([]float64, n)
	logSize := func() (int64, error) {
		st, err := os.Stat(base + ".pages.wal")
		if err != nil {
			return 0, err
		}
		return st.Size(), nil
	}
	log0, err := logSize()
	if err != nil {
		return err
	}
	tr.setPhase("replay.maintained")
	before := d.counters()
	for i := range ops {
		ops[i] = ws.next()
		t0 := time.Now()
		err := ops[i].apply(d.ob)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replay update %s: %w", ops[i], err)
		}
		tr.add("ObjectBase.update+maintain", i, "", t0, t1)
		maintained[i] = us(t1.Sub(t0))
	}
	after := d.counters()
	if err := d.mgr.Healthy(); err != nil {
		return err
	}
	log1, err := logSize()
	if err != nil {
		return err
	}
	fn := float64(n)
	logical := float64(after.pool.LogicalAccesses-before.pool.LogicalAccesses) / fn
	p.rep.set("storage.pool.logical_per_write", logical, n, 0)
	p.rep.set("storage.wal.records_per_write", float64(after.wal.Records-before.wal.Records)/fn, n, 0)
	p.rep.set("storage.wal.syncs_per_write", float64(after.wal.Syncs-before.wal.Syncs)/fn, n, 0)
	p.rep.set("storage.wal.bytes_per_write", float64(log1-log0)/fn, n, 0)
	if predicted := predictedUpdateCost(p.sp.scale); predicted > 0 {
		p.rep.set("costmodel.maint_ratio", logical/predicted, n, 0)
	}

	plain, err := p.fx.loadPlain()
	if err != nil {
		return err
	}
	tr.setPhase("replay.bare")
	bare := make([]float64, n)
	self := make([]float64, n)
	for i, op := range ops {
		t0 := time.Now()
		err := op.apply(plain)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replay bare update %s: %w", op, err)
		}
		tr.add("ObjectBase.update", i, "ObjectBase.update+maintain", t0, t1)
		bare[i] = us(t1.Sub(t0))
		self[i] = maintained[i] - bare[i]
	}
	p.rep.set("gom.update_us", median(bare), n, 0)
	p.rep.set("asr.maint_us", median(self), n, 0)
	return nil
}

// predictedUpdateCost is the cost model's page accesses for one update
// of the write mix (§6: object update + search + access-relation
// update), under the profile the demo fixture is generated from: extents
// 8/12/16/10 × scale with every Next defined, fan-outs 1/2/1, one
// payload per T3. A SetAttr replaces a reference — a delete and an
// insert — so the measured ÷ predicted ratio sits near 2 by construction;
// what is watched is its drift.
func predictedUpdateCost(scale int) float64 {
	s := float64(scale)
	m, err := costmodel.New(costmodel.DefaultSystem(), costmodel.Profile{
		N:   4,
		C:   []float64{8 * s, 12 * s, 16 * s, 10 * s, 10 * s},
		D:   []float64{8 * s, 12 * s, 16 * s, 10 * s},
		Fan: []float64{1, 2, 1, 1},
	})
	if err != nil {
		return 0
	}
	dec := costmodel.BinaryDecomposition(4)
	// Path position of the edge each update kind touches, by writeMix.
	positions := [4]int{2, 0, 1, 3}
	var cost float64
	for kind, share := range writeMix {
		cost += float64(share) / 100 * m.UpdateCost(costmodel.Full, positions[kind], dec)
	}
	return cost
}

// buildMetrics times a bulk index build on an index-less in-memory copy
// of the fixture's objects and attributes the open database's heap:
// what the opened stack held minus what the bare objects hold, per
// stored row.
func (p *pass) buildMetrics(openHeap float64) error {
	before := heapAlloc()
	plain, err := p.fx.loadPlain()
	if err != nil {
		return err
	}
	bareHeap := heapAlloc() - before
	t0, ok := plain.Schema().Lookup("T0")
	if !ok {
		return fmt.Errorf("fixture has no type T0")
	}
	path, err := gom.ResolvePath(t0, "Next", "Next", "Next", "Payload")
	if err != nil {
		return err
	}
	mgr := asr.NewManager(plain, storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU))
	start := time.Now()
	ix, err := mgr.CreateIndex(path, asr.Full, asr.BinaryDecomposition(path.Arity()-1))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	rows := 0
	for _, n := range ix.TotalRows() {
		rows += n
	}
	if rows == 0 {
		return nil
	}
	p.rep.set("asr.build_rows_per_s", float64(rows)/elapsed.Seconds(), rows, 0)
	p.rep.set("asr.heap_bytes_per_row", (openHeap-bareHeap)/float64(rows), rows, 0)
	return nil
}
