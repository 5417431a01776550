package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/telemetry"
)

// planFixture is one object base of this package's tests with the
// queries they run on it and every index configuration they build.
type planFixture struct {
	name    string
	base    *gom.ObjectBase
	path    *gom.PathExpression
	queries []string
	indexes []ixcfg
}

type ixcfg struct {
	ext asr.Extension
	dec asr.Decomposition
}

func planFixtures(t *testing.T) []planFixture {
	r := paperdb.BuildRobots()
	c := paperdb.BuildCompany()
	calib, calibPath := calibDB(t)
	return []planFixture{
		{
			name: "robots", base: r.Base, path: r.Path,
			queries: []string{
				`select r.Name from r in OurRobots where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`,
				`select r.Name from r in OurRobots`,
			},
			indexes: []ixcfg{{asr.Canonical, asr.NoDecomposition(r.Path.Arity() - 1)}},
		},
		{
			name: "company", base: c.Base, path: c.Path,
			queries: []string{
				`select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Door"`,
				`select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Pepper"`,
				`select d.Manufactures.Composition.Name from d in Mercedes where d.Name = "Auto"`,
				`select d.Manufactures.Composition.Name from d in Mercedes`,
				`select d from d in Mercedes where d.Name = "Space"`,
				`select d.Name from d in Mercedes`,
				`select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Door" and d.Name = "Truck"`,
				`select d.Manufactures.Composition.Name from d in Mercedes where d.Manufactures.Composition.Name = "Door"`,
			},
			indexes: []ixcfg{
				{asr.Full, asr.BinaryDecomposition(5)},
				{asr.Full, asr.Decomposition{0, 2, 5}},
				{asr.Full, asr.Decomposition{0, 5}},
			},
		},
		{
			name: "calib", base: calib.Base, path: calibPath,
			queries: []string{
				`select x from x in All where x.Next.Next.Next.Payload = "P3"`,
				`select x.Next.Next.Next.Payload from x in All where x.Next.Next.Next.Payload = "P0"`,
			},
			indexes: []ixcfg{{asr.Canonical, asr.NoDecomposition(calibPath.Arity() - 1)}},
		},
	}
}

// TestPlanExplainRunAgree: Explain and run read one plan, so for every
// fixture query, without an index and with each one, the routes Explain
// prices as asr(...) are exactly the predicates and projection the run's
// Result.Plan names "via ASR", and Explain's strategy is the strategy
// attribute of the run's query.run span.
func TestPlanExplainRunAgree(t *testing.T) {
	for _, fx := range planFixtures(t) {
		for k := -1; k < len(fx.indexes); k++ {
			var mgr *asr.Manager
			label := fx.name + "/no index"
			if k >= 0 {
				cfg := fx.indexes[k]
				mgr = asr.NewManager(fx.base, newPool())
				if _, err := mgr.CreateIndex(fx.path, cfg.ext, cfg.dec); err != nil {
					t.Fatal(err)
				}
				label = fmt.Sprintf("%s/%s %s", fx.name, cfg.ext, cfg.dec)
			}
			e := New(fx.base, mgr)
			sawASR := false
			for _, src := range fx.queries {
				q := MustParse(src)
				x, err := e.Explain(q)
				if err != nil {
					t.Fatalf("%s: Explain %s: %v", label, src, err)
				}
				ctx, capture := telemetry.WithCapture(context.Background())
				res, err := e.RunCtx(ctx, q, 1)
				if err != nil {
					t.Fatalf("%s: Run %s: %v", label, src, err)
				}

				var explained []string
				for _, r := range x.Routes {
					if strings.HasPrefix(r.Via, "asr(") {
						explained = append(explained, r.Role+" "+r.Path)
					}
				}
				var ran []string
				for _, note := range strings.Split(res.Plan, "; ") {
					role, rest, _ := strings.Cut(note, " ")
					if _, on, ok := strings.Cut(rest, " via ASR on "); ok {
						path, _, _ := strings.Cut(on, " (")
						ran = append(ran, role+" "+path)
					}
				}
				sort.Strings(explained)
				sort.Strings(ran)
				if strings.Join(explained, "\n") != strings.Join(ran, "\n") {
					t.Errorf("%s: %s\nExplain routes via ASR: %q\nrun's plan via ASR:     %q (%s)",
						label, src, explained, ran, res.Plan)
				}
				if (x.Strategy == "asr") != (len(explained) > 0) {
					t.Errorf("%s: %s: strategy %q with ASR routes %q", label, src, x.Strategy, explained)
				}
				if got := runStrategy(capture.Spans()); got != x.Strategy {
					t.Errorf("%s: %s: run's strategy attribute %q, Explain says %q", label, src, got, x.Strategy)
				}
				sawASR = sawASR || x.Strategy == "asr"
			}
			if sawASR != (mgr != nil) {
				t.Errorf("%s: some query routed through an index = %v", label, sawASR)
			}
			if mgr != nil {
				for _, ix := range mgr.Indexes() {
					if err := mgr.DropIndex(ix); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// runStrategy returns the strategy attribute of the query.run span.
func runStrategy(spans []telemetry.SpanRecord) string {
	for _, sp := range spans {
		if sp.Name != "query.run" {
			continue
		}
		for _, at := range sp.Attrs {
			if at.Key == "strategy" {
				return at.Value
			}
		}
	}
	return ""
}

// TestExplainAnalyzeExplainsThePlanItRuns: the report's predictions and
// its measurements describe one plan. With the index present the plan
// has an asr route and the run touched index pages; once the index is
// dropped the next report is traversal-only on both sides — no
// predicted and no measured index pages.
func TestExplainAnalyzeExplainsThePlanItRuns(t *testing.T) {
	db, predPath := calibDB(t)
	mgr := asr.NewManager(db.Base, newPool())
	ix, err := mgr.CreateIndex(predPath, asr.Canonical, asr.NoDecomposition(predPath.Arity()-1))
	if err != nil {
		t.Fatal(err)
	}
	e := New(db.Base, mgr)
	q := MustParse(`select x from x in All where x.Next.Next.Next.Payload = "P3"`)

	check := func(when string, wantASR bool) *Analysis {
		t.Helper()
		a, err := e.ExplainAnalyze(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		hasASR := false
		for _, r := range a.Explanation.Routes {
			hasASR = hasASR || strings.HasPrefix(r.Via, "asr(")
		}
		if hasASR != wantASR {
			t.Fatalf("%s: asr route = %v, want %v\n%s", when, hasASR, wantASR, a)
		}
		if got := runStrategy(a.Spans); got != a.Explanation.Strategy {
			t.Errorf("%s: explained strategy %q, ran %q", when, a.Explanation.Strategy, got)
		}
		if hasASR && (a.Explanation.PredictedIndexPages <= 0 || a.ActualIndexPages == 0) {
			t.Errorf("%s: asr route with predicted %.1f / actual %d index pages",
				when, a.Explanation.PredictedIndexPages, a.ActualIndexPages)
		}
		if !hasASR && (a.Explanation.PredictedIndexPages != 0 || a.ActualIndexPages != 0) {
			t.Errorf("%s: traversal-only plan with predicted %.1f / actual %d index pages",
				when, a.Explanation.PredictedIndexPages, a.ActualIndexPages)
		}
		return a
	}
	with := check("with the index", true)
	if err := mgr.DropIndex(ix); err != nil {
		t.Fatal(err)
	}
	without := check("after DropIndex", false)
	if with.Rows != without.Rows || with.Rows == 0 {
		t.Errorf("rows: %d with the index, %d without", with.Rows, without.Rows)
	}
}
