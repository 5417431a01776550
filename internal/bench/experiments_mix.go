package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"asr/internal/asr"
	"asr/internal/costmodel"
	"asr/internal/gendb"
)

// sim-mix: the empirical counterpart of the §6.4 operation-mix analysis.
// Whole operation streams — queries and maintained updates drawn from a
// weighted mix — are executed against two competing designs on identical
// synthetic databases, and the measured mean page traffic per operation
// is compared with the analytical expectation. This validates the
// paper's central conclusion (the best design depends on the update
// probability) with running code rather than formulas.

func init() {
	register(Experiment{
		ID:          "sim-mix",
		Title:       "Measured operation-mix cost: left vs full",
		Ref:         "§6.4 (validation)",
		Description: "Executes weighted query/update streams against left-complete and full indexes at several update probabilities and reports measured pages/op next to the model's expectation.",
		Run:         runSimMix,
	})
}

// mixSpec is small enough that each P_up point re-generates fresh
// databases per design.
var mixSpec = gendb.Spec{
	N:    3,
	C:    []int{150, 400, 800, 1500},
	D:    []int{130, 350, 650},
	Fan:  []int{2, 2, 2},
	Seed: 7,
}

func mixProfile() costmodel.Profile {
	return costmodel.Profile{
		N:    3,
		C:    []float64{150, 400, 800, 1500},
		D:    []float64{130, 350, 650},
		Fan:  []float64{2, 2, 2},
		Size: []float64{250, 250, 250, 250},
	}
}

type mixOp struct {
	isQuery bool
	kind    costmodel.QueryKind
	i, j    int // query span, or update position in i
}

// drawOps builds a deterministic operation stream for one P_up.
func drawOps(rng *rand.Rand, pup float64, count int) []mixOp {
	queries := []mixOp{
		{isQuery: true, kind: costmodel.Backward, i: 0, j: 3},
		{isQuery: true, kind: costmodel.Backward, i: 0, j: 2},
		{isQuery: true, kind: costmodel.Forward, i: 1, j: 2},
	}
	qWeights := []float64{0.5, 0.25, 0.25}
	updates := []mixOp{{i: 1}, {i: 2}}
	var out []mixOp
	for k := 0; k < count; k++ {
		if rng.Float64() < pup {
			out = append(out, updates[rng.Intn(len(updates))])
			continue
		}
		f := rng.Float64()
		acc := 0.0
		for qi, w := range qWeights {
			acc += w
			if f < acc || qi == len(queries)-1 {
				out = append(out, queries[qi])
				break
			}
		}
	}
	return out
}

// runDesignStream executes the stream against a fresh database with the
// given design and returns mean measured pages per operation.
func runDesignStream(ext asr.Extension, ops []mixOp) (float64, error) {
	db, err := gendb.Generate(mixSpec)
	if err != nil {
		return 0, err
	}
	objects, err := newLayout(db, mixProfile().Size)
	if err != nil {
		return 0, err
	}
	mcol := db.Path.Arity() - 1
	ix, err := asr.Build(db.Base, db.Path, ext, asr.BinaryDecomposition(mcol), newIndexPool())
	if err != nil {
		return 0, err
	}
	maint := asr.NewMaintainer(ix)
	db.Base.AddObserver(maint)

	rng := rand.New(rand.NewSource(mixSpec.Seed * 31))
	var total float64
	for _, op := range ops {
		if op.isQuery {
			fwd := op.kind == costmodel.Forward
			from := db.Extents[op.j] // backward: draw an end object
			if fwd {
				from = db.Extents[op.i]
			}
			v := from[rng.Intn(len(from))]
			m, err := indexQuery(ix, fwd, op.i, op.j, v)
			if errors.Is(err, asr.ErrNotSupported) {
				m, err = objects.unsupported(fwd, op.i, op.j, v), nil
			}
			if err != nil {
				return 0, err
			}
			total += float64(m.DistinctPages)
			continue
		}
		src := db.Extents[op.i][rng.Intn(len(db.Extents[op.i]))]
		dst := db.Extents[op.i+1][rng.Intn(len(db.Extents[op.i+1]))]
		m, err := insert(db, ix, maint, op.i, src, dst)
		if err != nil {
			return 0, err
		}
		total += float64(m.DistinctPages)
	}
	return total / float64(len(ops)), nil
}

func runSimMix() (*Table, error) {
	model, err := costmodel.New(sys(), mixProfile())
	if err != nil {
		return nil, err
	}
	mx := costmodel.Mix{
		Queries: []costmodel.WeightedQuery{
			{W: 0.5, Kind: costmodel.Backward, I: 0, J: 3},
			{W: 0.25, Kind: costmodel.Backward, I: 0, J: 2},
			{W: 0.25, Kind: costmodel.Forward, I: 1, J: 2},
		},
		Updates: []costmodel.WeightedUpdate{{W: 0.5, I: 1}, {W: 0.5, I: 2}},
	}
	dec := costmodel.BinaryDecomposition(3)

	t := &Table{
		ID:      "sim-mix",
		Title:   "Operation streams: measured pages/op vs model expectation",
		Ref:     "§6.4 validation",
		Columns: []string{"P_up", "measured left", "measured full", "model left", "model full"},
	}
	const streamLen = 60
	for _, pup := range []float64{0.1, 0.5, 0.9} {
		rng := rand.New(rand.NewSource(int64(pup*1000) + 3))
		ops := drawOps(rng, pup, streamLen)
		left, err := runDesignStream(asr.LeftComplete, ops)
		if err != nil {
			return nil, err
		}
		full, err := runDesignStream(asr.Full, ops)
		if err != nil {
			return nil, err
		}
		mp := mx.WithPUp(pup)
		t.AddRow(f3(pup), f1(left), f1(full),
			f1(model.MixCost(costmodel.LeftComplete, dec, mp)),
			f1(model.MixCost(costmodel.Full, dec, mp)))
	}
	t.Note = "each row executes the same deterministic stream of " + fmt.Sprint(streamLen) +
		" operations against fresh databases for both designs; the measured update side counts index " +
		"traffic — full's search probes its partitions, left's searches the objects, which costs no index " +
		"pages — so left sits below the model and full above it, while the query-side fallbacks (left " +
		"cannot evaluate Q1,2) show up in both"
	return t, nil
}
