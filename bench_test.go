// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (regenerating the same rows/series the
// paper reports — run `go run ./cmd/asrbench -all` for the tables
// themselves), plus micro-benchmarks of the underlying substrates.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"asr/internal/asr"
	"asr/internal/bench"
	"asr/internal/costmodel"
	"asr/internal/dump"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server"
	"asr/internal/storage"
)

// benchExperiment runs one registered reproduction experiment per
// iteration and reports its row count.
func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		tab, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tab.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// One benchmark per paper artifact. Figures 1/2 and the §3 tables are
// example-database constructions; Figures 4–17 evaluate the analytical
// model; sim and the ablations run the page-level simulator.

func BenchmarkFig1RobotTraversal(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2CompanyTraversal(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkTab3ExtensionConstruction(b *testing.B) { benchExperiment(b, "tab3") }
func BenchmarkFig4StorageByDesign(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5StorageVsDefined(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6BackwardQueryCost(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7QueryCostVsObjectSize(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8PartialPathSupport(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9FanoutSweep(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig11UpdateCost(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12UpdateCostVariant(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13UpdateVsObjectSize(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14MixBinary(b *testing.B)            { benchExperiment(b, "fig14") }
func BenchmarkFig15MixDecomp034(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16LeftVsFull(b *testing.B)           { benchExperiment(b, "fig16") }
func BenchmarkFig17RightVsFull(b *testing.B)          { benchExperiment(b, "fig17") }
func BenchmarkAdvisorDesignSweep(b *testing.B)        { benchExperiment(b, "advisor") }
func BenchmarkSimMeasuredVsPredicted(b *testing.B)    { benchExperiment(b, "sim") }
func BenchmarkAblationDualTree(b *testing.B)          { benchExperiment(b, "abl-dualtree") }
func BenchmarkAblationSharing(b *testing.B)           { benchExperiment(b, "abl-sharing") }

// Substrate micro-benchmarks.

func newBenchDB(b *testing.B) *gendb.Database {
	b.Helper()
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{200, 500, 1000, 2000},
		D:    []int{180, 400, 800},
		Fan:  []int{2, 2, 2},
		Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// newBenchIndex creates a maintained index through a Manager.
func newBenchIndex(b *testing.B, db *gendb.Database, ext asr.Extension) *asr.Index {
	b.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	ix, err := asr.NewManager(db.Base, pool).CreateIndex(db.Path, ext, asr.BinaryDecomposition(db.Path.Arity()-1))
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func BenchmarkASRBuildFull(b *testing.B) {
	db := newBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
		if _, err := asr.Build(db.Base, db.Path, asr.Full, asr.BinaryDecomposition(db.Path.Arity()-1), pool); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkASRQueryForward(b *testing.B) {
	db := newBenchDB(b)
	ix := newBenchIndex(b, db, asr.Full)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := gom.Ref(db.Extents[0][i%len(db.Extents[0])])
		if _, err := ix.Query(ctx, true, 0, 3, start); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkASRQueryBackward(b *testing.B) {
	db := newBenchDB(b)
	ix := newBenchIndex(b, db, asr.RightComplete)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := gom.Ref(db.Extents[3][i%len(db.Extents[3])])
		if _, err := ix.Query(ctx, false, 0, 3, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoASRBackwardSearch times the Manager's exhaustive-search
// fallback: with no index on the path, every t_0 object is walked.
func BenchmarkNoASRBackwardSearch(b *testing.B) {
	db := newBenchDB(b)
	mgr := asr.NewManager(db.Base, storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := gom.Ref(db.Extents[3][i%len(db.Extents[3])])
		if _, err := mgr.QueryBackward(db.Path, 0, 3, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkASRMaintainInsert(b *testing.B) {
	db := newBenchDB(b)
	ix := newBenchIndex(b, db, asr.Full)
	// Toggle one set membership back and forth.
	src := db.Extents[2][0]
	o, _ := db.Base.Get(src)
	v, _ := o.Attr("Next")
	if v == nil {
		b.Skip("anchor object has no set")
	}
	setID := v.(gom.Ref).OID()
	dst := gom.Ref(db.Extents[3][len(db.Extents[3])-1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := db.Base.InsertIntoSet(setID, dst); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := db.Base.RemoveFromSet(setID, dst); err != nil {
				b.Fatal(err)
			}
		}
		if err := ix.QuarantineReason(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostModelFullSweep(b *testing.B) {
	m, err := costmodel.New(costmodel.DefaultSystem(), costmodel.Profile{
		N:    4,
		C:    []float64{1000, 5000, 10000, 50000, 100000},
		D:    []float64{900, 4000, 8000, 20000},
		Fan:  []float64{2, 2, 3, 4},
		Size: []float64{500, 400, 300, 300, 100},
	})
	if err != nil {
		b.Fatal(err)
	}
	mx := costmodel.Mix{
		Queries: []costmodel.WeightedQuery{{W: 1, Kind: costmodel.Backward, I: 0, J: 4}},
		Updates: []costmodel.WeightedUpdate{{W: 1, I: 2}},
		PUp:     0.2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Advise(mx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkYao(b *testing.B) {
	for i := 0; i < b.N; i++ {
		costmodel.Yao(float64(i%1000), 500, 100000)
	}
}

// Example of regenerating one figure's series inside a benchmark report.
func BenchmarkFig6Series(b *testing.B) {
	e, _ := bench.Lookup("fig6")
	var tab fmt.Stringer
	for i := 0; i < b.N; i++ {
		t, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		tab = t
	}
	if b.N > 0 && tab != nil {
		b.Logf("\n%s", tab)
	}
}

func BenchmarkSimUpdateMaintenance(b *testing.B) { benchExperiment(b, "sim-update") }

func BenchmarkSimMixStreams(b *testing.B) { benchExperiment(b, "sim-mix") }

// BenchmarkQueryParallel runs a backward query from GOMAXPROCS
// goroutines at once, each on its caller's goroutine, the way a server's
// sessions run them: the exhaustive search over the whole anchor extent
// that no index supports (§5.6.2), sharing the object base's read lock,
// and the same query through a canonical ASR behind a single-stripe and
// an 8-stripe buffer pool, where the stripes' mutexes are the only
// difference.
func BenchmarkQueryParallel(b *testing.B) {
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{400, 1000, 2000, 4000},
		D:    []int{360, 800, 1600},
		Fan:  []int{2, 2, 2},
		Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	span := db.Path.Len()
	// A reachable target (a fixed extent member may have no incoming path).
	var target gom.Value
	for _, anchor := range db.Extents[0] {
		if vals, _ := db.Base.Reach(db.Path, 0, span, gom.Ref(anchor)); len(vals) > 0 {
			target = vals[0]
			break
		}
	}
	if target == nil {
		b.Fatal("no reachable target")
	}
	run := func(b *testing.B, mgr *asr.Manager) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := mgr.QueryBackward(db.Path, 0, span, target); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}

	b.Run("exhaustive", func(b *testing.B) {
		run(b, asr.NewManager(db.Base, storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)))
	})
	for _, shards := range []int{1, 8} {
		mgr := asr.NewManager(db.Base, storage.NewBufferPoolShards(storage.NewDisk(0), 0, storage.LRU, shards))
		if _, err := mgr.CreateIndex(db.Path, asr.Canonical, asr.NoDecomposition(db.Path.Arity()-1)); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("indexed/shards%d", shards), func(b *testing.B) { run(b, mgr) })
	}
}

// BenchmarkASRBuild times the bottom-up bulk loader (asr.Build) over a
// ≥10k-row extension.
func BenchmarkASRBuild(b *testing.B) {
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{2000, 5000, 10000, 20000},
		D:    []int{1800, 4000, 8000},
		Fan:  []int{3, 2, 2},
		Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	dec := asr.NoDecomposition(db.Path.Arity() - 1)
	probe, err := asr.Build(db.Base, db.Path, asr.Full, dec, storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU))
	if err != nil {
		b.Fatal(err)
	}
	rows := probe.TotalRows()[0]
	if rows < 10000 {
		b.Fatalf("partition holds %d rows, benchmark needs ≥ 10000", rows)
	}

	b.Run("bulk", func(b *testing.B) {
		b.ReportMetric(float64(rows), "rows")
		for i := 0; i < b.N; i++ {
			pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
			if _, err := asr.Build(db.Base, db.Path, asr.Full, dec, pool); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchProbe measures sorted batch probes (Partition.LookupBatch,
// one leaf-cursor walk over sorted keys) against the per-value descents
// they replaced, on a wide random frontier.
func BenchmarkBatchProbe(b *testing.B) {
	db := newBenchDB(b)
	ix := newBenchIndex(b, db, asr.Full)
	part := ix.Partitions()[0].Part
	vals := make([]gom.Value, 0, len(db.Extents[0]))
	for _, id := range db.Extents[0] {
		vals = append(vals, gom.Ref(id))
	}

	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				if _, err := part.LookupBatch(true, []gom.Value{v}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := part.LookupBatch(true, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The read_large query shapes, in process: the scale-1024 demo base
// (8 192 anchors in All, 59k objects) over an in-memory pool, one
// Engine.Run per iteration — what benchmark/'s read_large workload pays
// per request below the wire, without its 128-frame pool and FileDisk.

var readLarge struct {
	once sync.Once
	db   *server.Database
	err  error
}

func readLargeDB(tb testing.TB) *server.Database {
	tb.Helper()
	readLarge.once.Do(func() { readLarge.db, readLarge.err = server.DemoDatabase(1024, 1) })
	if readLarge.err != nil {
		tb.Fatal(readLarge.err)
	}
	return readLarge.db
}

// The three shapes of benchmark/fixture.go, for target ordinal k.
func readLargeQuery(tb testing.TB, shape string, k int) *query.Query {
	tb.Helper()
	var sql string
	switch shape {
	case "indexed": // backward query through the demo ASR
		sql = fmt.Sprintf(`select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-%d"`, k)
	case "scan": // no usable ASR for the predicate: traversal of every anchor
		sql = fmt.Sprintf(`select x.Payload from x in All where x.Payload = "L0-%d"`, k)
	case "forward": // traversal predicate, projection through the ASR
		sql = fmt.Sprintf(`select x.Next.Next.Next.Payload from x in All where x.Payload = "L0-%d"`, k)
	}
	q, err := query.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// readLargeQueries is 64 queries of one shape, over as many targets.
func readLargeQueries(b *testing.B, shape string) []*query.Query {
	qs := make([]*query.Query, 64)
	for k := range qs {
		qs[k] = readLargeQuery(b, shape, k*97)
	}
	return qs
}

func benchReadLarge(b *testing.B, shape string) {
	db := readLargeDB(b)
	qs := readLargeQueries(b, shape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Engine.Run(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadLargeIndexed(b *testing.B) { benchReadLarge(b, "indexed") }
func BenchmarkReadLargeScan(b *testing.B)    { benchReadLarge(b, "scan") }
func BenchmarkReadLargeForward(b *testing.B) { benchReadLarge(b, "forward") }

// BenchmarkReadLargeScanParallel is BenchmarkReadLargeScan from
// GOMAXPROCS goroutines at once, the way read_large's connections run
// it: what one goroutine cannot show is what the scans cost each other
// on the object base's shared read lock.
func BenchmarkReadLargeScanParallel(b *testing.B) {
	db := readLargeDB(b)
	qs := readLargeQueries(b, "scan")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := db.Engine.Run(qs[i%len(qs)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestReadLargeAllocationBudget pins what one Engine.Run may allocate on
// the read_large shapes — counts that repeat exactly, unlike times. An
// indexed query pays for its probe and its survivors, not for the 8 192
// members of All: 9.2 KB in 262 allocations, where a sorted copy of the
// collection plus a decoded node per page touched cost these same
// queries 1 001 KB in 556, a page-sized key buffer per partition probe
// 14.1 KB, and handing the evaluation to a worker pool 0.2 KB in 6. A
// scan filters All's members where the set keeps them and pays for its
// survivors, not per anchor: 2.1 KB in 49 allocations, from 130.3 KB
// when it copied the members first and 1 205 KB in 48 975 when it
// allocated per anchor. The budgets leave room for the race detector's
// ~0.8 KB more. The counts are floors too: two fewer is what a result
// map held on the request goroutine's stack saves, and such a map
// quadrupled read_large's op_p99_us end to end (Engine.evaluate, which
// returns the map so that it escapes; docs/PERFORMANCE.md). A change
// that lowers a count must measure that tail before it lowers the floor.
func TestReadLargeAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scale-1024 demo base")
	}
	db := readLargeDB(t)
	for _, tc := range []struct {
		shape                  string
		maxBytes, minAl, maxAl float64
	}{
		{"indexed", 10.75 * 1024, 262, 270},
		{"scan", 2.5 * 1024, 49, 55},
	} {
		q := readLargeQuery(t, tc.shape, 0)
		run := func() {
			if _, err := db.Engine.Run(q); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, run)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocations, %.1f KB per Engine.Run", tc.shape, allocs, bytes/1024)
		if allocs > tc.maxAl || bytes > tc.maxBytes {
			t.Errorf("%s: %.0f allocations and %.1f KB per Engine.Run, budget %.0f and %.0f KB",
				tc.shape, allocs, bytes/1024, tc.maxAl, tc.maxBytes/1024)
		}
		if allocs < tc.minAl {
			t.Errorf("%s: %.0f allocations per Engine.Run, below the floor of %.0f: is Engine.evaluate's result map still on the heap?",
				tc.shape, allocs, tc.minAl)
		}
	}
}

// TestObjectBaseHeapBudget pins what an object costs in the heap: the
// scale-1024 demo base (59 393 objects), dump-loaded the way a durable
// base is opened, measured as live heap after a forced GC. A dense OID
// table, slotted tuples and slice-backed sets hold it to ~200 B an
// object, where a map per tuple and per set and a map for the OID table
// cost 510 B.
func TestObjectBaseHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scale-1024 demo base")
	}
	var dumped bytes.Buffer
	if err := dump.Save(readLargeDB(t).Base, &dumped); err != nil {
		t.Fatal(err)
	}
	before := heap()
	ob, err := dump.Load(bytes.NewReader(dumped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(&dumped) // live across both readings, so its bytes cancel out
	n := ob.Count()
	per := float64(after-before) / float64(n)
	t.Logf("%d objects, %.0f B of heap each", n, per)
	const budget = 240
	if per > budget {
		t.Errorf("%.0f B of heap per object, budget %d B", per, budget)
	}
}

// heap returns the live heap after a forced collection.
func heap() uint64 {
	runtime.GC() // twice: the first only moves sync.Pool caches to their victim lists
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexHeapBudget pins what an opened index holds in the heap:
// asr.OpenFrom on the durable scale-1024 demo base behind a 128-frame
// pool, per stored row, counted the way the benchmark counts
// asr.heap_bytes_per_row — the opened stack's heap minus the bare
// objects'. The rows live in the partitions' B⁺-trees, so what stays is
// the pool's frames and a handle per partition; an in-memory copy of
// every auxiliary relation in both directions cost ~166 B a row.
func TestIndexHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and saves the scale-1024 demo base")
	}
	mem, err := server.DemoDatabase(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base")
	saved, err := mem.SaveAs(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := saved.Close(); err != nil {
		t.Fatal(err)
	}
	fd, wal, _, err := storage.Recover(base + ".pages")
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	defer wal.Close()
	f, err := os.Open(base + ".gom")
	if err != nil {
		t.Fatal(err)
	}
	ob, err := dump.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	before := heap()
	pool := storage.NewBufferPool(fd, 128, storage.LRU)
	pool.AttachWAL(wal)
	mgr, err := asr.OpenFrom(ob, pool, base+".manifest")
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	rows := 0
	for _, ix := range mgr.Indexes() {
		for _, n := range ix.TotalRows() {
			rows += n
		}
	}
	runtime.KeepAlive(ob)
	per := (float64(after) - float64(before)) / float64(rows)
	t.Logf("%d stored rows, %.1f B of heap each", rows, per)
	const budget = 32
	if per > budget {
		t.Errorf("%.1f B of heap per stored row, budget %d B", per, budget)
	}
}

// maintainedUpdates is a fixed update stream over a demo base in
// write_durable's mix: 40 % retarget a T2.Next, 20 % a T0.Next, 20 % a
// T1.Next set gains or loses an element, 20 % rename a T3.Payload. Every
// op changes the base; the ops are built before any is applied.
func maintainedUpdates(tb testing.TB, ob *gom.ObjectBase, n int) []func() error {
	tb.Helper()
	var lvl [4][]gom.OID
	for i := range lvl {
		typ, ok := ob.Schema().Lookup(fmt.Sprintf("T%d", i))
		if !ok {
			tb.Fatalf("demo base has no type T%d", i)
		}
		lvl[i] = ob.Extent(typ, false)
	}
	var sets []gom.OID
	members := map[gom.OID][]gom.OID{}
	for _, id := range lvl[1] {
		o, _ := ob.Get(id)
		if s, ok := ob.Get(o.AttrOID("Next")); ok {
			sets = append(sets, s.ID())
			members[s.ID()] = s.ElementOIDs()
		}
	}
	rng := rand.New(rand.NewSource(27))
	pick := func(l int) gom.OID { return lvl[l][rng.Intn(len(lvl[l]))] }
	ops := make([]func() error, n)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < 40:
			obj, ref := pick(2), gom.Ref(pick(3))
			ops[i] = func() error { return ob.SetAttr(obj, "Next", ref) }
		case r < 60:
			obj, ref := pick(0), gom.Ref(pick(1))
			ops[i] = func() error { return ob.SetAttr(obj, "Next", ref) }
		case r < 80:
			set := sets[rng.Intn(len(sets))]
			m := members[set]
			if len(m) < 2 || (len(m) == 2 && rng.Intn(2) == 0) {
				e := pick(2)
				for slices.Contains(m, e) {
					e = pick(2)
				}
				members[set] = append(m, e)
				ops[i] = func() error { return ob.InsertIntoSet(set, gom.Ref(e)) }
			} else {
				j := rng.Intn(len(m))
				e := m[j]
				members[set] = append(m[:j:j], m[j+1:]...)
				ops[i] = func() error { return ob.RemoveFromSet(set, gom.Ref(e)) }
			}
		default:
			obj, text := pick(3), gom.String(fmt.Sprintf("R-%d", i))
			ops[i] = func() error { return ob.SetAttr(obj, "Payload", text) }
		}
	}
	return ops
}

// TestMaintainedUpdateBudget pins what one maintained update costs on a
// durable demo base (write_durable's scale, a file-backed pool with its
// WAL, one fsync per commit) — counts that repeat exactly, unlike times.
// An update writes each partition's net row change once, rewrites
// surviving reference counts in place and frames each dirtied page
// straight into the log buffer: 17.3 logical page accesses, 8.0 WAL
// records, 28.6 KB of log, where pushing every affected row through
// every partition as a remove and an add cost 67.0, 16.6 and 63.9 KB.
// The §6 search for the affected rows is paid in pages too: it probes
// the backward trees of the partitions left of each changed edge, 10.1
// accesses more, 27.0 in all — hence the budget of 30. Heap and
// allocations per update: 17.7 KB in 394. A row born or dying in a
// partition is spliced into its leaf's bytes rather than decoding and
// re-encoding the leaf, and the undo transaction captures its pre-images
// and frames its commit into the buffers the previous update's
// transaction gave back; with none of that, an update allocated 130.8 KB
// in 426, and with a fresh commit scratch page 21.8 KB.
func TestMaintainedUpdateBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and saves the scale-256 demo base")
	}
	mem, err := server.DemoDatabase(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base")
	db, err := mem.SaveAs(base)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 400
	ops := maintainedUpdates(t, db.Base, n)
	pool, wal := db.Manager.Pool(), db.WAL()
	logSize := func() int64 {
		st, err := os.Stat(base + ".pages.wal")
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	pool0, wal0, log0 := pool.Stats(), wal.Stats(), logSize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	pool1, wal1, log1 := pool.Stats(), wal.Stats(), logSize()
	if err := db.Manager.Healthy(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range db.Manager.Indexes() {
		if rep, err := ix.Verify(); err != nil || !rep.Clean() {
			t.Fatalf("after the stream: %v %v", rep, err)
		}
	}

	per := func(a, b uint64) float64 { return float64(b-a) / n }
	got := []struct {
		name       string
		value, max float64
		unit       string
	}{
		{"logical page accesses", per(pool0.LogicalAccesses, pool1.LogicalAccesses), 30, ""},
		{"WAL records", per(wal0.Records, wal1.Records), 9, ""},
		{"WAL syncs", per(wal0.Syncs, wal1.Syncs), 1, ""},
		{"WAL bytes", float64(log1-log0) / n, 30000, " B"},
		{"heap bytes", per(before.TotalAlloc, after.TotalAlloc), 20 << 10, " B"},
		{"allocations", per(before.Mallocs, after.Mallocs), 435, ""},
	}
	for _, g := range got {
		t.Logf("%-22s %10.2f%s per update (budget %.0f)", g.name, g.value, g.unit, g.max)
		if g.value > g.max {
			t.Errorf("%s: %.2f%s per update, budget %.0f", g.name, g.value, g.unit, g.max)
		}
	}
}

// TestMaintenanceOneCommitPerUpdate checks that the Manager maintains
// every index an update touches in one transaction: one WAL commit
// marker and at most one sync per update, however many indexes there
// are, and every index ends equal to a rebuild. The indexes overlap on
// the scale-64 demo base — full and left on T0.Next.Next.Next.Payload,
// right on T1.Next.Next.Payload — and maintainedUpdates' stream drives
// them: 1.00 sync and 7.7, 13.8 and 18.0 WAL records per update with 1,
// 2 and 3 indexes. Committing each index's change on its own cost 1.00,
// 1.59 and 2.38 syncs (7.7, 14.4 and 19.3 records), and a crash between
// two of an update's commits left the indexes at different points of
// the base's history.
func TestMaintenanceOneCommitPerUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and saves the scale-64 demo base three times")
	}
	// The demo database comes with the first index.
	specs := []string{"full:binary:T0.Next.Next.Next.Payload", "left:binary:T0.Next.Next.Next.Payload", "right:binary:T1.Next.Next.Payload"}
	for k := 1; k <= len(specs); k++ {
		t.Run(fmt.Sprintf("indexes=%d", k), func(t *testing.T) {
			mem, err := server.DemoDatabase(64, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.BuildIndexes(specs[1:k]); err != nil {
				t.Fatal(err)
			}
			db, err := mem.SaveAs(filepath.Join(t.TempDir(), "base"))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got := len(db.Manager.Indexes()); got != k {
				t.Fatalf("%d indexes, want %d", got, k)
			}
			const n = 200
			ops := maintainedUpdates(t, db.Base, n)
			wal0 := db.WAL().Stats()
			for i, op := range ops {
				if err := op(); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
			}
			wal1 := db.WAL().Stats()
			if err := db.Manager.Healthy(); err != nil {
				t.Fatal(err)
			}
			syncs := float64(wal1.Syncs-wal0.Syncs) / n
			commits := float64(wal1.Commits-wal0.Commits) / n
			t.Logf("%d indexes: %.2f WAL syncs, %.2f commit markers, %.2f records per update",
				k, syncs, commits, float64(wal1.Records-wal0.Records)/n)
			if syncs > 1 || commits > 1 {
				t.Errorf("%.2f WAL syncs and %.2f commit markers per update, want at most 1 each", syncs, commits)
			}
			for _, ix := range db.Manager.Indexes() {
				if rep, err := ix.Verify(); err != nil || !rep.Clean() {
					t.Fatalf("%s after the stream: %v %v", ix, rep, err)
				}
				fresh, err := asr.Build(db.Base, ix.Path(), ix.Extension(), ix.Decomposition(),
					storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := ix.TotalRows(), fresh.TotalRows(); !slices.Equal(got, want) {
					t.Errorf("%s stores %v rows per partition, a rebuild %v", ix, got, want)
				}
			}
		})
	}
}
