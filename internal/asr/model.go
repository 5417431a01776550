package asr

import (
	"fmt"

	"asr/internal/costmodel"
	"asr/internal/gom"
)

// The bridge from a live object base to the analytical cost model. The
// model (internal/costmodel) mirrors this package's Extension and
// Decomposition in the paper's object-step positions 0..n; everything
// that crosses between the two — the measured application profile and
// the step↔column boundary mapping — crosses here.

// Profile measures the application profile of Figure 3 / §4.1 for path
// over ob: c_i is the extent of t_i, d_i the objects whose A_{i+1}
// leads somewhere, fan_i the references per such object and shar_i the
// references per distinct referenced object, so e_i comes out exactly
// empirical. A step is followed the way the index follows it
// (gom.Object.Follow): a NULL, a dangling reference and an empty set
// lead nowhere. For an atomic last level c_n is the number of distinct
// values. sizes are the n+1 object sizes size_i the caller assumes; nil
// estimates 64 bytes plus 8 per reference. An empty level is an error:
// the model needs positive populations.
func Profile(ob *gom.ObjectBase, path *gom.PathExpression, sizes []float64) (costmodel.Profile, error) {
	n := path.Len()
	if sizes != nil && len(sizes) != n+1 {
		return costmodel.Profile{}, fmt.Errorf("asr: profile of %s: %d sizes for %d levels", path, len(sizes), n+1)
	}
	p := costmodel.Profile{
		N:    n,
		C:    make([]float64, n+1),
		D:    make([]float64, n),
		Fan:  make([]float64, n),
		Shar: make([]float64, n),
		Size: make([]float64, n+1),
	}
	var targets []gom.Value
	for i, step := range path.Steps() {
		extent := ob.Extent(step.Domain, true)
		if len(extent) == 0 {
			return costmodel.Profile{}, fmt.Errorf("asr: profile of %s: extent of %s is empty", path, step.Domain.Name())
		}
		p.C[i] = float64(len(extent))
		var defined, refs float64
		distinct := map[string]bool{}
		for _, id := range extent {
			o, ok := ob.Get(id)
			if !ok {
				continue
			}
			_, targets = o.Follow(step, targets[:0])
			if len(targets) == 0 {
				continue
			}
			defined++
			refs += float64(len(targets))
			for _, t := range targets {
				distinct[gom.ValueString(t)] = true
			}
		}
		p.D[i] = defined
		if defined > 0 {
			p.Fan[i] = refs / defined
			p.Shar[i] = refs / float64(len(distinct))
		}
		// Overwritten by the next level's extent unless this is the
		// last step.
		p.C[i+1] = float64(len(distinct))
	}
	if last := path.Step(n).Range; last.Kind() != gom.AtomicType {
		p.C[n] = float64(len(ob.Extent(last, true)))
	}
	if p.C[n] == 0 {
		return costmodel.Profile{}, fmt.Errorf("asr: profile of %s: no values at level %d", path, n)
	}
	if sizes != nil {
		copy(p.Size, sizes)
		return p, nil
	}
	for i := range p.Size {
		fan := 1.0
		if i < n {
			fan = p.Fan[i]
		}
		p.Size[i] = 64 + 8*fan
	}
	return p, nil
}

// StepsOf converts a decomposition of path's relation columns (which
// include set-object identifier columns) to the cost model's object-step
// positions 0..n, the paper's no-set-sharing simplification ("read n as
// m", §3). A boundary on a set column maps to the owning step;
// coinciding boundaries collapse.
func StepsOf(path *gom.PathExpression, dec Decomposition) costmodel.Decomposition {
	var out costmodel.Decomposition
	for _, col := range dec {
		s, _ := path.StepOfColumn(col)
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// ColumnsOf is the inverse of StepsOf on boundaries that sit on object
// columns: a step-space decomposition in path's column space, the
// set-object columns staying inside their partition.
func ColumnsOf(path *gom.PathExpression, dec costmodel.Decomposition) Decomposition {
	out := make(Decomposition, len(dec))
	for i, s := range dec {
		out[i] = path.ObjectColumn(s)
	}
	return out
}
