package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"asr/internal/asr"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// calibDB builds a small deterministic database for calibration tests:
// a gendb chain T0 →→ T3 with set-valued references, Payload values on
// the final level, and an "All" collection over the T0 extent.
func calibDB(t *testing.T) (*gendb.Database, *gom.PathExpression) {
	t.Helper()
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{30, 40, 50, 60},
		D:    []int{25, 30, 40},
		Fan:  []int{2, 2, 2},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, id := range db.Extents[3] {
		db.Base.MustSetAttr(id, "Payload", gom.String(fmt.Sprintf("P%d", k%10)))
	}
	allType, err := db.Schema.DefineCollection("ALL_T0", gom.SetType, db.Types[0])
	if err != nil {
		t.Fatal(err)
	}
	allObj, err := db.Base.New(allType)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range db.Extents[0] {
		db.Base.MustInsertIntoSet(allObj.ID(), gom.Ref(id))
	}
	if err := db.Base.BindVar("All", allObj.ID()); err != nil {
		t.Fatal(err)
	}
	predPath := gom.MustResolvePath(db.Types[0], "Next", "Next", "Next", "Payload")
	return db, predPath
}

// Golden calibration: the cost model's predictions and the measured
// access counts of the same run must agree within a stated tolerance,
// for an ASR-backed query (predicted index pages vs cold-cache pool
// misses) and for a pure traversal (predicted object reads, eq. 31 with
// page-sized objects, vs the evaluator's object fetches). The report
// must also be stable across runs — same predictions, same measured
// counts, same rows.
func TestExplainAnalyzeCalibration(t *testing.T) {
	db, predPath := calibDB(t)
	const query = `select x from x in All where x.Next.Next.Next.Payload = "P3"`

	// ASR-backed: a canonical single-partition index over the full path.
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	mgr := asr.NewManager(db.Base, pool)
	if _, err := mgr.CreateIndex(predPath, asr.Canonical, asr.NoDecomposition(predPath.Arity()-1)); err != nil {
		t.Fatal(err)
	}
	engASR := New(db.Base, mgr)
	aASR, err := engASR.ExplainAnalyze(context.Background(), MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("asr analysis:\n%s", aASR)
	if aASR.Explanation.Strategy != "asr" {
		t.Fatalf("strategy = %s, want asr", aASR.Explanation.Strategy)
	}
	if aASR.Explanation.PredictedIndexPages <= 0 || aASR.ActualIndexPages == 0 {
		t.Fatalf("index pages: predicted %.1f, actual %d — both must be positive",
			aASR.Explanation.PredictedIndexPages, aASR.ActualIndexPages)
	}
	if r := aASR.IndexCalibration(); r < 0.2 || r > 5 {
		t.Errorf("index calibration ratio %.2f outside [0.2, 5]", r)
	}

	// Traversal: same query, no manager.
	engTrav := New(db.Base, nil)
	aTrav, err := engTrav.ExplainAnalyze(context.Background(), MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("traversal analysis:\n%s", aTrav)
	if aTrav.Explanation.Strategy != "traversal" {
		t.Fatalf("strategy = %s, want traversal", aTrav.Explanation.Strategy)
	}
	if aTrav.Explanation.PredictedObjectReads <= 0 || aTrav.ActualObjectReads == 0 {
		t.Fatalf("object reads: predicted %.1f, actual %d — both must be positive",
			aTrav.Explanation.PredictedObjectReads, aTrav.ActualObjectReads)
	}
	if r := aTrav.ObjectCalibration(); r < 0.5 || r > 2 {
		t.Errorf("object calibration ratio %.2f outside [0.5, 2]", r)
	}

	// The two strategies answer the same question.
	if aASR.Rows != aTrav.Rows || aASR.Rows == 0 {
		t.Errorf("rows: asr %d, traversal %d — want equal and nonzero", aASR.Rows, aTrav.Rows)
	}

	// Stability: a second analysis reproduces predictions and counts.
	again, err := engASR.ExplainAnalyze(context.Background(), MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	if again.Explanation.PredictedIndexPages != aASR.Explanation.PredictedIndexPages ||
		again.ActualIndexPages != aASR.ActualIndexPages ||
		again.Rows != aASR.Rows {
		t.Errorf("analysis not reproducible: %+v then %+v", aASR, again)
	}

	// The report carries the span breakdown of the analyzed run.
	var names []string
	for _, sp := range aASR.Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"query.run", "query.resolve", "query.prefilter", "query.execute"} {
		if !strings.Contains(joined, want) {
			t.Errorf("span %q missing from analysis (got %v)", want, names)
		}
	}
}

// Explain without running must not touch the collection contents: it is
// a static report with the routing decision and predictions.
func TestExplainStaticReport(t *testing.T) {
	db, predPath := calibDB(t)
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	mgr := asr.NewManager(db.Base, pool)
	if _, err := mgr.CreateIndex(predPath, asr.Canonical, asr.NoDecomposition(predPath.Arity()-1)); err != nil {
		t.Fatal(err)
	}
	eng := New(db.Base, mgr)
	x, err := eng.Explain(MustParse(`select x from x in All where x.Next.Next.Next.Payload = "P0"`))
	if err != nil {
		t.Fatal(err)
	}
	if x.Strategy != "asr" || x.Anchors != len(db.Extents[0]) {
		t.Errorf("explanation = %+v", x)
	}
	rendered := x.String()
	for _, want := range []string{"strategy: asr", "via asr(can", "predicted"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered explanation missing %q:\n%s", want, rendered)
		}
	}
	if len(x.Routes) == 0 {
		t.Error("no routes in explanation")
	}
}
