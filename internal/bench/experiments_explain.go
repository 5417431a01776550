package bench

import (
	"context"
	"fmt"

	"asr/internal/asr"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/query"
)

// Calibration experiment: run the same declarative query through the
// query engine with and without an access support relation under
// EXPLAIN ANALYZE, and report the cost model's predicted access counts
// against the counts the run actually produced — the model's
// calibration error as numbers.

func init() {
	register(Experiment{
		ID:          "explain-calib",
		Title:       "EXPLAIN ANALYZE: predicted vs measured accesses",
		Ref:         "§5.5–5.8 (calibration)",
		Description: "Runs one select-from-where query with an ASR and as a pure traversal under EXPLAIN ANALYZE; reports predicted index pages / object reads against the same run's measured counts.",
		Run:         runExplainCalib,
	})
}

func runExplainCalib() (*Table, error) {
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{30, 40, 50, 60},
		D:    []int{25, 30, 40},
		Fan:  []int{2, 2, 2},
		Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	for k, id := range db.Extents[3] {
		if err := db.Base.SetAttr(id, "Payload", gom.String(fmt.Sprintf("P%d", k%10))); err != nil {
			return nil, err
		}
	}
	allType, err := db.Schema.DefineCollection("ALL_T0", gom.SetType, db.Types[0])
	if err != nil {
		return nil, err
	}
	allObj, err := db.Base.New(allType)
	if err != nil {
		return nil, err
	}
	for _, id := range db.Extents[0] {
		if err := db.Base.InsertIntoSet(allObj.ID(), gom.Ref(id)); err != nil {
			return nil, err
		}
	}
	if err := db.Base.BindVar("All", allObj.ID()); err != nil {
		return nil, err
	}
	predPath, err := gom.ResolvePath(db.Types[0], "Next", "Next", "Next", "Payload")
	if err != nil {
		return nil, err
	}

	q, err := query.Parse(`select x from x in All where x.Next.Next.Next.Payload = "P3"`)
	if err != nil {
		return nil, err
	}

	mgr := asr.NewManager(db.Base, newIndexPool())
	if _, err := mgr.CreateIndex(predPath, asr.Canonical, asr.NoDecomposition(predPath.Arity()-1)); err != nil {
		return nil, err
	}
	withASR, err := query.New(db.Base, mgr).ExplainAnalyze(context.Background(), q)
	if err != nil {
		return nil, err
	}
	traversal, err := query.New(db.Base, nil).ExplainAnalyze(context.Background(), q)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "explain-calib",
		Title:   "EXPLAIN ANALYZE calibration (predicted vs measured)",
		Ref:     "§5.5–5.8",
		Columns: []string{"strategy", "unit", "predicted", "actual", "ratio", "rows"},
	}
	t.Rows = append(t.Rows,
		[]string{"asr", "index pages",
			f1(withASR.Explanation.PredictedIndexPages),
			fmt.Sprint(withASR.ActualIndexPages),
			f3(withASR.IndexCalibration()),
			fmt.Sprint(withASR.Rows)},
		[]string{"asr", "object reads",
			f1(withASR.Explanation.PredictedObjectReads),
			fmt.Sprint(withASR.ActualObjectReads),
			f3(withASR.ObjectCalibration()),
			fmt.Sprint(withASR.Rows)},
		[]string{"traversal", "object reads",
			f1(traversal.Explanation.PredictedObjectReads),
			fmt.Sprint(traversal.ActualObjectReads),
			f3(traversal.ObjectCalibration()),
			fmt.Sprint(traversal.Rows)},
	)
	t.Note = "ratio = actual/predicted; index pages are cold-cache pool misses, " +
		"object reads are eq. 31 with page-sized objects"
	return t, nil
}
