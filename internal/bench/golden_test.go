package bench

import (
	"os"
	"path/filepath"
	"testing"

	"asr/internal/costmodel"
)

// The page-level experiments measure exact page counts on seeded
// databases, so their rendered tables are deterministic. These tests pin
// them byte for byte: a change to how the simulations measure must
// reproduce the same numbers or edit the golden files on purpose.

// checkGolden compares got with testdata/name.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from its golden file\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestGoldenSimTables(t *testing.T) {
	for _, id := range []string{"sim", "sim-update", "sim-mix"} {
		t.Run(id, func(t *testing.T) {
			checkGolden(t, id+".golden", runExperiment(t, id).String())
		})
	}
}

// TestGoldenValidate pins `asradvisor -example | asradvisor -config -
// -validate` at seed 1: the advisor's recommendation for the example
// profile, checked on the scaled synthetic database.
func TestGoldenValidate(t *testing.T) {
	p := costmodel.Profile{
		N:    4,
		C:    []float64{1000, 5000, 10000, 50000, 100000},
		D:    []float64{900, 4000, 8000, 20000},
		Fan:  []float64{2, 2, 3, 4},
		Size: []float64{500, 400, 300, 300, 100},
	}
	mx := costmodel.Mix{
		Queries: []costmodel.WeightedQuery{
			{W: 0.5, Kind: costmodel.Backward, I: 0, J: 4},
			{W: 0.25, Kind: costmodel.Backward, I: 0, J: 3},
			{W: 0.25, Kind: costmodel.Forward, I: 1, J: 2},
		},
		Updates: []costmodel.WeightedUpdate{{W: 0.5, I: 2}, {W: 0.5, I: 3}},
		PUp:     0.2,
	}
	model, err := costmodel.New(costmodel.DefaultSystem(), p)
	if err != nil {
		t.Fatal(err)
	}
	ranked, _, err := model.Advise(mx)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ValidateDesign(p, ranked[0].Design, mx, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "validate.golden", tab.String())
}
