package bench

import (
	"errors"
	"fmt"
	"math"

	"asr/internal/asr"
	"asr/internal/costmodel"
	"asr/internal/gendb"
)

// ValidateDesign closes the advisor's loop empirically: it generates a
// synthetic database matching the profile (scaled down when very large),
// materializes the given design, executes every query of the mix against
// both the index and the no-support strategies, and reports measured
// distinct-page counts side by side with the model's predictions. This
// is the "verify a given physical database design" step of §7.
func ValidateDesign(p costmodel.Profile, d costmodel.Design, mx costmodel.Mix, seed int64) (*Table, error) {
	spec, scale, err := specFromProfile(p, seed)
	if err != nil {
		return nil, err
	}
	db, err := gendb.Generate(spec)
	if err != nil {
		return nil, err
	}
	sizes := make([]float64, p.N+1)
	for i := range sizes {
		sizes[i] = 100
		if p.Size != nil && p.Size[i] > 0 {
			sizes[i] = p.Size[i]
		}
	}
	objects, err := newLayout(db, sizes)
	if err != nil {
		return nil, err
	}

	ix, err := asr.Build(db.Base, db.Path, d.Ext,
		asr.ColumnsOf(db.Path, d.Dec), newIndexPool())
	if err != nil {
		return nil, err
	}

	model, err := costmodel.New(costmodel.DefaultSystem(), scaledProfile(p, scale))
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "validate",
		Title:   fmt.Sprintf("Empirical check of design %s (scale 1/%d)", d, scale),
		Ref:     "§7",
		Columns: []string{"query", "measured ASR", "measured no-support", "predicted ASR", "predicted no-support"},
	}
	for _, q := range mx.Queries {
		var asrPages, noPages float64
		const samples = 5
		fwd := q.Kind == costmodel.Forward
		from := db.Extents[q.J] // backward: sample end objects
		if fwd {
			from = db.Extents[q.I]
		}
		for s := 0; s < samples; s++ {
			v := from[s%len(from)]
			withASR, err := indexQuery(ix, fwd, q.I, q.J, v)
			if err != nil && !errors.Is(err, asr.ErrNotSupported) {
				return nil, err
			}
			asrPages += float64(withASR.DistinctPages)
			noPages += float64(objects.unsupported(fwd, q.I, q.J, v).DistinctPages)
		}
		t.AddRow(costmodel.QueryName(q.Kind, q.I, q.J),
			f1(asrPages/samples), f1(noPages/samples),
			f1(model.Q(d.Ext, q.Kind, q.I, q.J, d.Dec)),
			f1(model.Qnas(q.Kind, q.I, q.J)))
	}
	t.Note = "measured = mean distinct pages over sampled anchors on the scaled synthetic database; queries the design cannot support report 0 measured ASR pages (they would fall back)"
	return t, nil
}

// specFromProfile converts a cost-model profile into a generator spec,
// scaling populations down so the largest level stays buildable
// in-process.
func specFromProfile(p costmodel.Profile, seed int64) (gendb.Spec, int, error) {
	const maxObjects = 20000
	scale := 1
	for _, c := range p.C {
		for int(c)/scale > maxObjects {
			scale *= 2
		}
	}
	spec := gendb.Spec{N: p.N, Seed: seed}
	for i := 0; i <= p.N; i++ {
		c := int(p.C[i]) / scale
		if c < 2 {
			c = 2
		}
		spec.C = append(spec.C, c)
	}
	for i := 0; i < p.N; i++ {
		d := int(p.D[i]) / scale
		if d > spec.C[i] {
			d = spec.C[i]
		}
		if d < 1 {
			d = 1
		}
		fan := int(math.Round(p.Fan[i]))
		if fan < 1 {
			fan = 1
		}
		if fan > spec.C[i+1] {
			fan = spec.C[i+1]
		}
		spec.D = append(spec.D, d)
		spec.Fan = append(spec.Fan, fan)
	}
	return spec, scale, nil
}

// scaledProfile divides populations by the scale factor so predictions
// match the generated database.
func scaledProfile(p costmodel.Profile, scale int) costmodel.Profile {
	out := p
	out.C = append([]float64(nil), p.C...)
	out.D = append([]float64(nil), p.D[:p.N]...)
	for i := range out.C {
		out.C[i] = math.Max(2, math.Floor(out.C[i]/float64(scale)))
	}
	for i := range out.D {
		out.D[i] = math.Max(1, math.Min(math.Floor(out.D[i]/float64(scale)), out.C[i]))
	}
	return out
}
