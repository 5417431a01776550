package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// num parses a table cell as a float.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func runExperiment(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tab, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	if s := tab.String(); !strings.Contains(s, tab.Title) {
		t.Fatalf("%s: rendering lost the title", id)
	}
	return tab
}

func TestAllExperimentsRun(t *testing.T) {
	if len(All()) < 15 {
		t.Fatalf("only %d experiments registered", len(All()))
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			runExperiment(t, e.ID)
		})
	}
}

// Shape assertions: the qualitative claims each paper figure makes must
// hold in our reproduction.

func TestFig4Shape(t *testing.T) {
	tab := runExperiment(t, "fig4")
	// Rows: can, full, left, right. Canonical/left are drastically
	// smaller than right/full for this left-light profile.
	byExt := map[string][]string{}
	for _, row := range tab.Rows {
		byExt[row[0]] = row
	}
	canB := num(t, byExt["can"][3])
	leftB := num(t, byExt["left"][3])
	rightB := num(t, byExt["right"][3])
	fullB := num(t, byExt["full"][3])
	if !(canB < rightB && canB < fullB && leftB < rightB && leftB < fullB) {
		t.Errorf("expected can/left << right/full: can=%g left=%g right=%g full=%g",
			canB, leftB, rightB, fullB)
	}
	// Binary decomposition reduces storage by roughly a factor of two.
	for _, ext := range []string{"can", "full", "left", "right"} {
		ratio := num(t, byExt[ext][5])
		if ratio < 0.3 || ratio > 0.9 {
			t.Errorf("%s: binary/no-dec = %g, expected a ~0.5 reduction", ext, ratio)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	tab := runExperiment(t, "fig5")
	// Sizes grow with d_i and the full/can ratio approaches 1.
	firstRatio := num(t, tab.Rows[0][5])
	lastRatio := num(t, tab.Rows[len(tab.Rows)-1][5])
	if !(lastRatio < firstRatio) || lastRatio > 1.05 {
		t.Errorf("full/can should shrink towards 1: first=%g last=%g", firstRatio, lastRatio)
	}
	prev := 0.0
	for _, row := range tab.Rows {
		v := num(t, row[1])
		if v < prev {
			t.Error("canonical size not monotone in d_i")
		}
		prev = v
	}
}

func TestFig6Shape(t *testing.T) {
	tab := runExperiment(t, "fig6")
	costs := map[string]float64{}
	for _, row := range tab.Rows {
		costs[row[0]] = num(t, row[1])
	}
	noSup := costs["no support"]
	for design, c := range costs {
		if design == "no support" {
			continue
		}
		if c >= noSup {
			t.Errorf("%s cost %g not below no-support %g", design, c, noSup)
		}
	}
	// Non-decomposed beats binary for whole-path queries.
	for _, ext := range []string{"can", "full", "left", "right"} {
		if costs[ext+" no-dec"] > costs[ext+" binary"] {
			t.Errorf("%s: no-dec %g > binary %g", ext, costs[ext+" no-dec"], costs[ext+" binary"])
		}
	}
}

func TestFig7Shape(t *testing.T) {
	tab := runExperiment(t, "fig7")
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if !(num(t, last[1]) > num(t, first[1])) {
		t.Error("no-support cost should grow with object size")
	}
	for col := 2; col <= 5; col++ {
		if num(t, last[col]) != num(t, first[col]) {
			t.Errorf("supported cost (col %d) moved with object size", col)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tab := runExperiment(t, "fig8")
	// At the largest d_i, the non-decomposed full relation must lose to
	// no support (the paper's §5.9.3 point).
	last := tab.Rows[len(tab.Rows)-1]
	noSup := num(t, last[1])
	fullNoDec := num(t, last[5])
	if fullNoDec <= noSup {
		t.Errorf("full no-dec %g did not exceed no-support %g at d=10^4", fullNoDec, noSup)
	}
	// Binary-decomposed left stays cheap.
	leftBi := num(t, last[2])
	if leftBi >= noSup {
		t.Errorf("left binary %g not below no-support %g", leftBi, noSup)
	}
}

func TestFig9Shape(t *testing.T) {
	tab := runExperiment(t, "fig9")
	for _, row := range tab.Rows {
		can, left := num(t, row[2]), num(t, row[3])
		full, right := num(t, row[4]), num(t, row[5])
		if !(can <= full && can <= right && left <= full && left <= right) {
			t.Errorf("fan %s: can/left should beat full/right: %v", row[0], row)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	tab := runExperiment(t, "fig11")
	costs := map[string]float64{}
	for _, row := range tab.Rows {
		costs[row[0]] = num(t, row[3])
	}
	if costs["left binary"] >= costs["right binary"] {
		t.Errorf("ins_3: left binary %g not below right binary %g",
			costs["left binary"], costs["right binary"])
	}
}

func TestFig13Shape(t *testing.T) {
	tab := runExperiment(t, "fig13")
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	// Canonical and right grow with object size.
	if !(num(t, last[1]) > num(t, first[1])) {
		t.Error("canonical update cost should grow with object size")
	}
	if !(num(t, last[4]) > num(t, first[4])) {
		t.Error("right-complete update cost should grow with object size")
	}
	// Left stays (nearly) flat: well under the canonical growth.
	leftGrowth := num(t, last[3]) - num(t, first[3])
	canGrowth := num(t, last[1]) - num(t, first[1])
	if leftGrowth > canGrowth/2 {
		t.Errorf("left growth %g not well below canonical growth %g", leftGrowth, canGrowth)
	}
}

func TestFig14Shape(t *testing.T) {
	tab := runExperiment(t, "fig14")
	// Above the break-even, full wins over left.
	hi := tab.Rows[len(tab.Rows)-1]
	hiLeft, hiFull := num(t, hi[4]), num(t, hi[3])
	if hiFull >= hiLeft {
		t.Errorf("P_up=0.9: full %g not below left %g", hiFull, hiLeft)
	}
	// A left/full break-even must exist in the lower half of the range
	// (the paper reports ≈ 0.3; our transcription lands lower because the
	// partition shapes differ only by ±1 page at this profile's scale).
	if !strings.Contains(tab.Note, "break-even at P_up = 0.") {
		t.Errorf("note should report an interior break-even, got %q", tab.Note)
	}
	var p float64
	if _, err := fmt.Sscanf(tab.Note[strings.Index(tab.Note, "P_up = ")+len("P_up = "):], "%f", &p); err != nil {
		t.Fatalf("cannot parse break-even from note %q: %v", tab.Note, err)
	}
	if p <= 0 || p >= 0.5 {
		t.Errorf("break-even P_up = %g, expected in (0, 0.5)", p)
	}
	// Just below the break-even, left beats full; every design beats no
	// support at low update probability.
	lowRow := tab.Rows[0]
	if noSup := num(t, lowRow[1]); noSup <= num(t, lowRow[3]) {
		t.Errorf("P_up=0.1: full %s not below no-support %s", lowRow[3], lowRow[1])
	}
}

func TestFig17Shape(t *testing.T) {
	tab := runExperiment(t, "fig17")
	// The coarse decomposition is superior to binary throughout.
	for _, row := range tab.Rows {
		if num(t, row[3]) > num(t, row[1]) {
			t.Errorf("P_up %s: right (0,3,5) %s worse than binary %s", row[0], row[3], row[1])
		}
		if num(t, row[4]) > num(t, row[2]) {
			t.Errorf("P_up %s: full (0,3,5) %s worse than binary %s", row[0], row[4], row[2])
		}
	}
	// At the smallest P_up, right (0,3,5) beats full (0,3,5).
	first := tab.Rows[0]
	if num(t, first[3]) >= num(t, first[4]) {
		t.Errorf("P_up=0.001: right %s not below full %s", first[3], first[4])
	}
	// At high P_up, full wins.
	last := tab.Rows[len(tab.Rows)-1]
	if num(t, last[4]) >= num(t, last[3]) {
		t.Errorf("P_up=0.9: full %s not below right %s", last[4], last[3])
	}
}

func TestSimShape(t *testing.T) {
	tab := runExperiment(t, "sim")
	vals := map[string][]string{}
	for _, row := range tab.Rows {
		vals[row[0]] = row
	}
	noSup := num(t, vals["Q0,4(bw) no support"][1])
	sup := num(t, vals["Q0,4(bw) canonical ASR"][1])
	if sup*10 >= noSup {
		t.Errorf("measured: supported %g vs unsupported %g — expected ≥10x win", sup, noSup)
	}
	// Measured/predicted ratios stay within an order of magnitude.
	for op, row := range vals {
		ratio := num(t, row[3])
		if ratio < 0.1 || ratio > 10 {
			t.Errorf("%s: measured/predicted = %g, outside [0.1, 10]", op, ratio)
		}
	}
}

func TestAblationShapes(t *testing.T) {
	dual := runExperiment(t, "abl-dualtree")
	with := num(t, dual.Rows[0][1])
	without := num(t, dual.Rows[1][1])
	if with >= without {
		t.Errorf("backward tree %g not below forward-scan %g", with, without)
	}
	share := runExperiment(t, "abl-sharing")
	shared := num(t, share.Rows[0][1])
	separate := num(t, share.Rows[1][1])
	if shared > separate {
		t.Errorf("shared layout %g pages > separate %g", shared, separate)
	}
}

// TestSimUpdateShape holds maintenance to the model's aup: measured
// churn follows aup's left ≤ right ordering, and no extension churns
// more than it did while every affected row was removed from and re-added
// to every partition (the ceilings below, in pages per update).
func TestSimUpdateShape(t *testing.T) {
	tab := runExperiment(t, "sim-update")
	ceiling := map[string]float64{"can": 6.7, "left": 13.7, "right": 17.9, "full": 35.8}
	byExt := map[string]float64{}
	for _, row := range tab.Rows {
		byExt[row[0]] = num(t, row[1])
		if aup, ratio := num(t, row[3]), num(t, row[4]); aup <= 0 || ratio <= 0 {
			t.Errorf("%s: model aup %g, measured ÷ aup %g — both must be positive", row[0], aup, ratio)
		}
	}
	for ext, limit := range ceiling {
		got, ok := byExt[ext]
		if !ok {
			t.Errorf("no %s row in %v", ext, tab.Rows)
		} else if got > limit {
			t.Errorf("%s churn %g pages/op exceeds the un-netted %g", ext, got, limit)
		}
	}
	if byExt["left"] > byExt["right"] {
		t.Errorf("left churn %g exceeds right %g, against the model's aup", byExt["left"], byExt["right"])
	}
	if !strings.Contains(tab.Note, "holds") {
		t.Errorf("churn ordering violated: %s", tab.Note)
	}
}

func TestLookupAndIDs(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown experiment found")
	}
	tab := runExperiment(t, "fig6")
	if csv := tab.CSV(); !strings.Contains(csv, "design,cost") {
		t.Errorf("CSV header wrong: %q", csv)
	}
}

func TestSimMixShape(t *testing.T) {
	tab := runExperiment(t, "sim-mix")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	prevLeft, prevFull := 0.0, 0.0
	for _, row := range tab.Rows {
		mLeft, mFull := num(t, row[1]), num(t, row[2])
		pLeft, pFull := num(t, row[3]), num(t, row[4])
		// Measured within an order of magnitude of the model.
		for _, pair := range [][2]float64{{mLeft, pLeft}, {mFull, pFull}} {
			if r := pair[0] / pair[1]; r < 0.1 || r > 10 {
				t.Errorf("P_up %s: measured/model = %g", row[0], r)
			}
		}
		// Costs do not decrease as updates dominate.
		if mLeft < prevLeft || mFull < prevFull {
			t.Errorf("P_up %s: measured cost decreased", row[0])
		}
		prevLeft, prevFull = mLeft, mFull
	}
}
