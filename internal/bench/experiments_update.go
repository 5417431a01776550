package bench

import (
	"fmt"

	"asr/internal/asr"
	"asr/internal/costmodel"
	"asr/internal/engine"
	"asr/internal/gendb"
	"asr/internal/storage"
)

// sim-update: empirical maintenance cost. The paper's §6 costs are
// analytical; here the simulator performs real ins_i operations against
// maintained indexes and counts the index page traffic, then compares
// the per-extension ordering with the model's aup+search predictions.

func init() {
	register(Experiment{
		ID:          "sim-update",
		Title:       "Measured maintenance page traffic per extension",
		Ref:         "§6 (validation)",
		Description: "Performs real ins_i updates against maintained indexes and measures index page accesses; the per-extension ordering must match the analytical update-cost ordering.",
		Run:         runSimUpdate,
	})
}

func runSimUpdate() (*Table, error) {
	spec := gendb.Spec{
		N:    3,
		C:    []int{200, 500, 1000, 2000},
		D:    []int{180, 400, 800},
		Fan:  []int{2, 2, 2},
		Seed: 77,
	}
	model, err := costmodel.New(sys(), costmodel.Profile{
		N:    3,
		C:    []float64{200, 500, 1000, 2000},
		D:    []float64{180, 400, 800},
		Fan:  []float64{2, 2, 2},
		Size: []float64{200, 200, 200, 200},
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "sim-update",
		Title:   "ins_2 maintenance: measured index page accesses vs model",
		Ref:     "§6 validation",
		Columns: []string{"extension", "measured pages/op", "model total", "model aup"},
	}
	const insAt = 2 // edge t_2 → t_3: the right end of the path
	type result struct {
		ext      asr.Extension
		measured float64
	}
	var results []result
	for _, ext := range asr.Extensions {
		// Fresh database per extension so each sees identical updates.
		db, err := gendb.Generate(spec)
		if err != nil {
			return nil, err
		}
		objPool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
		place, err := gendb.Place(db, objPool, []int{200, 200, 200, 200})
		if err != nil {
			return nil, err
		}
		e := engine.New(place)
		mcol := db.Path.Arity() - 1
		ix, err := asr.Build(db.Base, db.Path, ext, asr.BinaryDecomposition(mcol), newIndexPool())
		if err != nil {
			return nil, err
		}
		maint := asr.NewMaintainer(ix)
		db.Base.AddObserver(maint)

		var total float64
		const ops = 20
		for k := 0; k < ops; k++ {
			src := db.Extents[insAt][k]
			dst := db.Extents[insAt+1][len(db.Extents[insAt+1])-1-k]
			meas, err := e.InsertWithASR(ix, src, dst, maint)
			if err != nil {
				return nil, err
			}
			total += float64(meas.LogicalAccesses)
		}
		measured := total / ops
		results = append(results, result{ext, measured})
		t.AddRow(ext.String(), f1(measured),
			f1(model.UpdateCost(ext, insAt, costmodel.BinaryDecomposition(3))),
			f1(model.Aup(ext, insAt, costmodel.BinaryDecomposition(3))))
	}

	// The measured column is the *index write traffic* of incremental
	// maintenance. The model's canonical/right totals are dominated by
	// searching the object representation (the simulator resolves that
	// search from its in-memory path graph, charging no pages), so the
	// comparable shape is row churn: extensions that store more partial
	// paths must rewrite more — can, left, right all churn less than
	// full, which holds maximal information (§3).
	byExt := map[asr.Extension]float64{}
	for _, r := range results {
		byExt[r.ext] = r.measured
	}
	ordering := "holds"
	if !(byExt[asr.Canonical] <= byExt[asr.Full] &&
		byExt[asr.LeftComplete] <= byExt[asr.Full] &&
		byExt[asr.RightComplete] <= byExt[asr.Full]) {
		ordering = "VIOLATED"
	}
	t.Note = fmt.Sprintf(
		"churn ordering (can/left/right ≤ full) %s: can %.1f, left %.1f, right %.1f, full %.1f; "+
			"the model's canonical/right totals are search-dominated — the simulator answers that search from memory, so only index-write traffic is measured",
		ordering, byExt[asr.Canonical], byExt[asr.LeftComplete], byExt[asr.RightComplete], byExt[asr.Full])
	return t, nil
}
