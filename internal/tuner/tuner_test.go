package tuner

import (
	"math"
	"testing"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/storage"
)

func newPool() *storage.BufferPool {
	return storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
}

func TestWorkloadMix(t *testing.T) {
	w := NewWorkload()
	pathName := "Division.Manufactures.Composition.Name"
	for i := 0; i < 6; i++ {
		w.RecordQuery(asr.QueryEvent{Path: pathName, Forward: false, I: 0, J: 3})
	}
	for i := 0; i < 2; i++ {
		w.RecordQuery(asr.QueryEvent{Path: pathName, Forward: true, I: 0, J: 1})
	}
	for i := 0; i < 2; i++ {
		w.RecordUpdate(pathName, 1)
	}
	mix, err := w.Mix(pathName)
	if err != nil {
		t.Fatal(err)
	}
	if err := mix.Validate(); err != nil {
		t.Fatalf("derived mix invalid: %v", err)
	}
	if math.Abs(mix.PUp-0.2) > 1e-9 { // 2 updates / 10 ops
		t.Errorf("PUp = %g, want 0.2", mix.PUp)
	}
	if len(mix.Queries) != 2 || len(mix.Updates) != 1 {
		t.Fatalf("mix = %+v", mix)
	}
	if math.Abs(mix.Queries[1].W-0.75) > 1e-9 && math.Abs(mix.Queries[0].W-0.75) > 1e-9 {
		t.Errorf("query weights = %+v", mix.Queries)
	}
	if _, err := w.Mix("unknown.path"); err == nil {
		t.Error("unknown path accepted")
	}
}

func TestUpdateRecorderMapsEvents(t *testing.T) {
	c := paperdb.BuildCompany()
	w := NewWorkload()
	c.Base.AddObserver(NewUpdateRecorder(w, c.Path))

	// ins at step index 0 (Division.Manufactures edge / ProdSET change).
	c.Base.MustInsertIntoSet(c.ProdSetAuto, gom.Ref(c.ProdSausage))
	// ins at step index 1 (Composition set change).
	c.Base.MustInsertIntoSet(c.PartsSausage, gom.Ref(c.PartDoor))
	// attr assignment at step index 2 (BasePart.Name).
	c.Base.MustSetAttr(c.PartDoor, "Name", gom.String("Hatch"))

	mix, err := w.Mix(c.Path.String())
	if err != nil {
		t.Fatal(err)
	}
	if mix.PUp != 1 {
		t.Errorf("PUp = %g, want 1 (updates only)", mix.PUp)
	}
	want := map[int]float64{0: 1.0 / 3, 1: 1.0 / 3, 2: 1.0 / 3}
	if len(mix.Updates) != 3 {
		t.Fatalf("updates = %+v", mix.Updates)
	}
	for _, u := range mix.Updates {
		if math.Abs(u.W-want[u.I]) > 1e-9 {
			t.Errorf("update %+v, want weight %g", u, want[u.I])
		}
	}
}

func TestTunerRecommendAndAutotune(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := asr.NewManager(c.Base, newPool())
	tn := New(c.Base, mgr)
	tn.Watch(c.Path)

	// Simulate a query-heavy workload through the manager (recorded via
	// the hook), with a few updates.
	for i := 0; i < 20; i++ {
		if _, err := mgr.QueryBackward(c.Path, 0, 3, gom.String("Door")); err != nil {
			t.Fatal(err)
		}
	}
	c.Base.MustInsertIntoSet(c.PartsSausage, gom.Ref(c.PartDoor))
	c.Base.RemoveFromSet(c.PartsSausage, gom.Ref(c.PartDoor))

	rec, err := tn.Recommend(c.Path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Current != nil {
		t.Errorf("no index installed, but Current = %v", rec.Current)
	}
	if rec.BestCost <= 0 || rec.NoSupport < rec.BestCost {
		t.Errorf("recommendation implausible: %+v", rec)
	}
	if rec.Mix.PUp <= 0 || rec.Mix.PUp >= 0.5 {
		t.Errorf("PUp = %g, expected a query-heavy mix", rec.Mix.PUp)
	}

	// Autotune installs the best design.
	recs, err := tn.Autotune(1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recs = %+v", recs)
	}
	if len(mgr.Indexes()) != 1 {
		t.Fatalf("autotune installed %d indexes", len(mgr.Indexes()))
	}
	installed := mgr.Indexes()[0]
	if int(installed.Extension()) != int(recs[0].Best.Ext) {
		t.Errorf("installed %v, recommended %v", installed.Extension(), recs[0].Best.Ext)
	}
	// The installed index answers queries correctly.
	divs, err := mgr.QueryBackward(c.Path, 0, 3, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	if got := asr.OIDsOf(divs); len(got) != 2 {
		t.Errorf("after autotune, bw(Door) = %v", got)
	}

	// A second autotune with the same workload keeps the design (no
	// churn): Current is now set and the improvement is ~1.
	recs2, err := tn.Autotune(1.2)
	if err != nil {
		t.Fatal(err)
	}
	if recs2[0].Current == nil {
		t.Fatal("current design not detected after install")
	}
	if len(mgr.Indexes()) != 1 {
		t.Errorf("autotune churned: %d indexes", len(mgr.Indexes()))
	}
	if rec2 := recs2[0]; rec2.Improvement() > 1.05 {
		t.Errorf("second pass claims %.2fx improvement over itself", rec2.Improvement())
	}
	if s := recs2[0].String(); s == "" {
		t.Error("empty recommendation string")
	}
}

func TestTunerRespondsToWorkloadShift(t *testing.T) {
	// When the workload turns update-heavy, the recommended design's
	// expected cost under the new mix must not exceed the old design's.
	c := paperdb.BuildCompany()
	mgr := asr.NewManager(c.Base, newPool())
	tn := New(c.Base, mgr)
	tn.Watch(c.Path)

	for i := 0; i < 50; i++ {
		mgr.QueryBackward(c.Path, 0, 3, gom.String("Door"))
	}
	c.Base.MustInsertIntoSet(c.PartsSausage, gom.Ref(c.PartDoor))
	recQueryHeavy, err := tn.Recommend(c.Path)
	if err != nil {
		t.Fatal(err)
	}

	// Now hammer updates.
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			c.Base.MustInsertIntoSet(c.PartsSausage, gom.Ref(c.PartDoor))
		} else {
			c.Base.RemoveFromSet(c.PartsSausage, gom.Ref(c.PartDoor))
		}
	}
	recUpdateHeavy, err := tn.Recommend(c.Path)
	if err != nil {
		t.Fatal(err)
	}
	if recUpdateHeavy.Mix.PUp <= recQueryHeavy.Mix.PUp {
		t.Fatalf("PUp did not rise: %g -> %g", recQueryHeavy.Mix.PUp, recUpdateHeavy.Mix.PUp)
	}
	if recUpdateHeavy.BestCost <= 0 {
		t.Errorf("implausible recommendation: %+v", recUpdateHeavy)
	}
	t.Logf("query-heavy: %s", recQueryHeavy)
	t.Logf("update-heavy: %s", recUpdateHeavy)
}
