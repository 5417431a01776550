package query

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/paperdb"
)

// RunCtx ignores its worker count: for every query and every count it
// returns Run's Values and Plan, with or without ASR assistance, and it
// is safe to invoke from many goroutines at once (run with -race).

var parallelQueries = []string{
	`select r.Name from r in OurRobots
		where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`,
	`select r from r in OurRobots`,
}

var parallelCompanyQueries = []string{
	`select d.Name from d in Mercedes, b in d.Manufactures.Composition
		where b.Name = "Door"`,
	`select d.Manufactures.Composition.Name from d in Mercedes`,
	`select d.Name from d in Mercedes`,
}

// TestRunParallelMatchesRun: whatever the worker count, RunCtx answers
// with Run's Values and Plan.
func TestRunParallelMatchesRun(t *testing.T) {
	r := paperdb.BuildRobots()
	c := paperdb.BuildCompany()
	rmgr := asr.NewManager(r.Base, newPool())
	if _, err := rmgr.CreateIndex(r.Path, asr.Canonical, asr.NoDecomposition(r.Path.Arity()-1)); err != nil {
		t.Fatal(err)
	}
	cmgr := asr.NewManager(c.Base, newPool())
	if _, err := cmgr.CreateIndex(c.Path, asr.Full, asr.BinaryDecomposition(5)); err != nil {
		t.Fatal(err)
	}

	engines := map[string]struct {
		e       *Engine
		queries []string
	}{
		"robots-naive":    {New(r.Base, nil), parallelQueries},
		"robots-indexed":  {New(r.Base, rmgr), parallelQueries},
		"company-naive":   {New(c.Base, nil), parallelCompanyQueries},
		"company-indexed": {New(c.Base, cmgr), parallelCompanyQueries},
	}
	for name, eng := range engines {
		for _, src := range eng.queries {
			q := MustParse(src)
			want, err := eng.e.Run(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, w := range []int{-1, 0, 1, 2, 3, 8, 64} {
				got, err := eng.e.RunCtx(context.Background(), q, w)
				if err != nil {
					t.Fatalf("%s w=%d: %v", name, w, err)
				}
				if fmt.Sprint(valueStrings(got.Values)) != fmt.Sprint(valueStrings(want.Values)) || got.Plan != want.Plan {
					t.Errorf("%s w=%d %q:\n%v, plan %q\nwant\n%v, plan %q",
						name, w, src, valueStrings(got.Values), got.Plan, valueStrings(want.Values), want.Plan)
				}
			}
		}
	}
}

// TestRunBoundsWorkersByTheCollection: a worker count far beyond any
// collection — an old caller may pass one — costs nothing: with the
// outer collection walked in place, copied, or seeded by an index, the
// run answers as it does with one worker per member.
func TestRunBoundsWorkersByTheCollection(t *testing.T) {
	r := paperdb.BuildRobots()
	coll, _ := r.Base.Get(r.OurRobots)
	mgr := asr.NewManager(r.Base, newPool())
	if _, err := mgr.CreateIndex(r.Path, asr.Canonical, asr.NoDecomposition(r.Path.Arity()-1)); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"naive": New(r.Base, nil), "indexed": New(r.Base, mgr)} {
		for _, src := range parallelQueries {
			q := MustParse(src)
			want, err := e.RunCtx(context.Background(), q, coll.Len())
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.RunCtx(context.Background(), q, math.MaxInt)
			if err != nil {
				t.Fatalf("%s %q: %v", name, src, err)
			}
			if fmt.Sprint(valueStrings(got.Values)) != fmt.Sprint(valueStrings(want.Values)) || got.Plan != want.Plan {
				t.Errorf("%s %q with MaxInt workers:\n%v, plan %q\nwant (%d workers)\n%v, plan %q",
					name, src, valueStrings(got.Values), got.Plan, coll.Len(), valueStrings(want.Values), want.Plan)
			}
		}
	}
}

func TestRunParallelConcurrentCallers(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := asr.NewManager(c.Base, newPool())
	if _, err := mgr.CreateIndex(c.Path, asr.Full, asr.BinaryDecomposition(5)); err != nil {
		t.Fatal(err)
	}
	e := New(c.Base, mgr)
	q := MustParse(parallelCompanyQueries[0])
	want := valueStrings(mustRun(t, e, q))

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := e.RunCtx(context.Background(), q, 1)
				if err != nil {
					errc <- err
					return
				}
				got := valueStrings(res.Values)
				if len(got) != len(want) {
					errc <- errMismatch(got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func mustRun(t *testing.T, e *Engine, q *Query) []gom.Value {
	t.Helper()
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

type errMismatchT struct{ got, want []string }

func errMismatch(got, want []string) error { return errMismatchT{got, want} }
func (e errMismatchT) Error() string {
	return "parallel result mismatch: got " + strings.Join(e.got, ",") + " want " + strings.Join(e.want, ",")
}
