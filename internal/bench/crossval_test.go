package bench

import (
	"testing"

	"asr/internal/asr"
	"asr/internal/costmodel"
	"asr/internal/gendb"
	"asr/internal/gom"
)

// Cross-validation: the analytical cardinality formulas (§4.2) against
// the exact extension sizes of real generated databases. The model is a
// probabilistic approximation (uniform reference distribution), so we
// demand agreement within a factor, not equality — but the ordering
// between extensions must be exact.

func modelFor(t *testing.T, spec gendb.Spec) *costmodel.Model {
	t.Helper()
	p := costmodel.Profile{
		N:   spec.N,
		C:   make([]float64, spec.N+1),
		D:   make([]float64, spec.N),
		Fan: make([]float64, spec.N),
	}
	for i, c := range spec.C {
		p.C[i] = float64(c)
	}
	for i := 0; i < spec.N; i++ {
		p.D[i] = float64(spec.D[i])
		p.Fan[i] = float64(spec.Fan[i])
	}
	m, err := costmodel.New(costmodel.DefaultSystem(), p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func actualCardinality(t *testing.T, db *gendb.Database, ext asr.Extension) float64 {
	t.Helper()
	aux, err := asr.BuildAuxiliaryRelations(db.Base, db.Path)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := asr.BuildExtension(ext, "E", aux)
	if err != nil {
		t.Fatal(err)
	}
	return float64(rel.Cardinality())
}

var extPairs = []struct {
	a asr.Extension
	m costmodel.Extension
}{
	{asr.Canonical, costmodel.Canonical},
	{asr.Full, costmodel.Full},
	{asr.LeftComplete, costmodel.LeftComplete},
	{asr.RightComplete, costmodel.RightComplete},
}

func TestModelCardinalityMatchesGeneratedDatabase(t *testing.T) {
	specs := []gendb.Spec{
		{N: 3, C: []int{200, 400, 800, 1600}, D: []int{150, 300, 500}, Fan: []int{2, 2, 2}, Seed: 1},
		{N: 4, C: []int{100, 500, 1000, 5000, 10000}, D: []int{90, 400, 800, 2000}, Fan: []int{2, 2, 3, 4}, Seed: 2},
		{N: 2, C: []int{500, 500, 500}, D: []int{500, 500}, Fan: []int{1, 1}, Seed: 3},
	}
	for si, spec := range specs {
		db, err := gendb.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := modelFor(t, spec)
		var got, pred [4]float64
		for i, pair := range extPairs {
			got[i] = actualCardinality(t, db, pair.a)
			pred[i] = m.Cardinality(pair.m, 0, spec.N)
			ratio := got[i] / pred[i]
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("spec %d %v: actual %g vs predicted %g (ratio %.2f)",
					si, pair.a, got[i], pred[i], ratio)
			}
			t.Logf("spec %d %-5v: actual %8.0f predicted %8.0f ratio %.3f",
				si, pair.a, got[i], pred[i], got[i]/pred[i])
		}
		// Orderings must agree: can ≤ left/right ≤ full, both in reality
		// and in the model.
		if !(got[0] <= got[2] && got[0] <= got[3] && got[2] <= got[1] && got[3] <= got[1]) {
			t.Errorf("spec %d: actual containment violated: %v", si, got)
		}
		if !(pred[0] <= pred[2]+1e-9 && pred[0] <= pred[3]+1e-9 && pred[2] <= pred[1]+1e-9 && pred[3] <= pred[1]+1e-9) {
			t.Errorf("spec %d: predicted containment violated: %v", si, pred)
		}
	}
}

func TestModelConnectivityMatchesGeneratedDatabase(t *testing.T) {
	// RefBy(0,i) (objects reachable from level 0) and the generator's
	// measured reachability should agree within a factor of 2.
	spec := gendb.Spec{
		N: 4, C: []int{200, 600, 1200, 2400, 4800},
		D: []int{180, 500, 900, 1800}, Fan: []int{2, 2, 2, 2}, Seed: 17,
	}
	db, err := gendb.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := modelFor(t, spec)
	refs := func(ids []gom.OID) []gom.Value {
		vs := make([]gom.Value, len(ids))
		for k, id := range ids {
			vs[k] = gom.Ref(id)
		}
		return vs
	}
	for i := 1; i <= spec.N; i++ {
		pred := m.RefBy(0, i)
		reachable, _ := db.Base.Reach(db.Path, 0, i, refs(db.Extents[0])...)
		referenced, _ := db.Base.Reach(db.Path, i-1, i, refs(db.Extents[i-1])...)
		got := float64(len(reachable))
		if got == 0 || pred == 0 {
			t.Fatalf("level %d: degenerate connectivity (got %g, pred %g)", i, got, pred)
		}
		if r := got / pred; r < 0.5 || r > 2.0 {
			t.Errorf("level %d: reachable %g vs RefBy(0,%d) %g (ratio %.2f)", i, got, i, pred, r)
		}
		predRefd := m.E[i]
		gotRefd := float64(len(referenced))
		if r := gotRefd / predRefd; r < 0.5 || r > 2.0 {
			t.Errorf("level %d: referenced %g vs e_%d %g (ratio %.2f)", i, gotRefd, i, predRefd, r)
		}
	}
}

func TestValidateDesign(t *testing.T) {
	p := costmodel.Profile{
		N:    3,
		C:    []float64{200, 500, 1000, 2000},
		D:    []float64{180, 400, 800},
		Fan:  []float64{2, 2, 2},
		Size: []float64{200, 200, 200, 200},
	}
	mx := costmodel.Mix{
		Queries: []costmodel.WeightedQuery{
			{W: 0.5, Kind: costmodel.Backward, I: 0, J: 3},
			{W: 0.5, Kind: costmodel.Forward, I: 0, J: 3},
		},
		Updates: []costmodel.WeightedUpdate{{W: 1, I: 1}},
		PUp:     0.1,
	}
	d := costmodel.Design{Ext: costmodel.Full, Dec: costmodel.Decomposition{0, 3}}
	tab, err := ValidateDesign(p, d, mx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	// The backward query must measure dramatically cheaper with the ASR.
	for _, row := range tab.Rows {
		if row[0] != "Q0,3(bw)" {
			continue
		}
		withASR, without := num(t, row[1]), num(t, row[2])
		if withASR*5 >= without {
			t.Errorf("measured ASR %g not well below no-support %g", withASR, without)
		}
	}
}

func TestValidateDesignScalesLargeProfiles(t *testing.T) {
	p := costmodel.Profile{
		N:   2,
		C:   []float64{400000, 400000, 400000},
		D:   []float64{100000, 100000},
		Fan: []float64{2, 2},
	}
	mx := costmodel.Mix{
		Queries: []costmodel.WeightedQuery{{W: 1, Kind: costmodel.Backward, I: 0, J: 2}},
		Updates: []costmodel.WeightedUpdate{{W: 1, I: 0}},
		PUp:     0.5,
	}
	d := costmodel.Design{Ext: costmodel.RightComplete, Dec: costmodel.BinaryDecomposition(2)}
	tab, err := ValidateDesign(p, d, mx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

// TestValidateDesignRejectsOversizedObjects: object sizes come from the
// advisor's input, and an object larger than a page cannot be placed.
func TestValidateDesignRejectsOversizedObjects(t *testing.T) {
	p := costmodel.Profile{
		N:    2,
		C:    []float64{100, 200, 300},
		D:    []float64{80, 150},
		Fan:  []float64{2, 2},
		Size: []float64{5000, 200, 200},
	}
	mx := costmodel.Mix{Queries: []costmodel.WeightedQuery{{W: 1, Kind: costmodel.Backward, I: 0, J: 2}}}
	d := costmodel.Design{Ext: costmodel.Full, Dec: costmodel.BinaryDecomposition(2)}
	if tab, err := ValidateDesign(p, d, mx, 1); err == nil {
		t.Fatalf("size_0 = 5000 accepted:\n%s", tab)
	}
}
