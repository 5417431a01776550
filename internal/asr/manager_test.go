package asr

import (
	"testing"

	"asr/internal/gom"
	"asr/internal/paperdb"
)

func TestManagerCreateDropAndRouting(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := NewManager(c.Base, newPool())

	leftIx, err := mgr.CreateIndex(c.Path, LeftComplete, BinaryDecomposition(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateIndex(c.Path, LeftComplete, BinaryDecomposition(5)); err == nil {
		t.Error("duplicate index accepted")
	}
	fullIx, err := mgr.CreateIndex(c.Path, Full, Decomposition{0, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(mgr.Indexes()) != 2 {
		t.Fatalf("indexes = %d", len(mgr.Indexes()))
	}

	// Whole-path query: both indexes are usable; routing picks the one
	// with fewer stored rows (either is correct, the choice must be
	// usable and deterministic).
	got1 := mgr.FindIndex(c.Path, 0, 3)
	if got1 == nil || !got1.Supports(0, 3) {
		t.Fatalf("FindIndex(0,3) = %v", got1)
	}
	if got2 := mgr.FindIndex(c.Path, 0, 3); got2 != got1 {
		t.Error("routing not deterministic")
	}
	if got1 != leftIx && got1 != fullIx {
		t.Errorf("FindIndex returned a foreign index: %v", got1)
	}
	// Partial span (1,3): only full supports it.
	if got := mgr.FindIndex(c.Path, 1, 3); got != fullIx {
		t.Errorf("FindIndex(1,3) = %v, want the full index", got)
	}

	divs, err := mgr.QueryBackward(c.Path, 0, 3, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(divs); len(got) != 2 {
		t.Errorf("routed backward = %v", got)
	}

	if err := mgr.DropIndex(fullIx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.DropIndex(fullIx); err == nil {
		t.Error("double drop accepted")
	}
	if got := mgr.FindIndex(c.Path, 1, 3); got != nil {
		t.Error("dropped index still routed")
	}
	if err := mgr.Healthy(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerFallbackTraversal(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := NewManager(c.Base, newPool())
	// No index at all: forward traversal and exhaustive backward search.
	names, err := mgr.QueryForward(c.Path, 0, 3, gom.Ref(c.DivAuto))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || !names[0].Equal(gom.String("Door")) {
		t.Errorf("fallback forward = %v", names)
	}
	divs, err := mgr.QueryBackward(c.Path, 0, 3, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(divs); len(got) != 2 || got[0] != c.DivAuto || got[1] != c.DivTruck {
		t.Errorf("fallback backward = %v", got)
	}
	// Partial span fallback works too.
	prods, err := mgr.QueryBackward(c.Path, 1, 3, gom.String("Pepper"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(prods); len(got) != 1 || got[0] != c.ProdSausage {
		t.Errorf("fallback partial backward = %v", got)
	}
	// Bad spans are rejected.
	if _, err := mgr.QueryForward(c.Path, 2, 1, gom.Ref(c.DivAuto)); err == nil {
		t.Error("inverted span accepted")
	}
}

func TestManagerFallbackMatchesIndexedResults(t *testing.T) {
	for seed := int64(50); seed < 54; seed++ {
		ob, path := randomCompany(t, seed, 8, 12, 10)
		mgrNoIx := NewManager(ob, newPool())
		mgrIx := NewManager(ob, newPool())
		if _, err := mgrIx.CreateIndex(path, Full, BinaryDecomposition(5)); err != nil {
			t.Fatal(err)
		}
		divT := ob.Schema().MustLookup("Division")
		for _, div := range ob.Extent(divT, true) {
			a, err := mgrNoIx.QueryForward(path, 0, 3, gom.Ref(div))
			if err != nil {
				t.Fatal(err)
			}
			b, err := mgrIx.QueryForward(path, 0, 3, gom.Ref(div))
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("seed %d: fallback %v != indexed %v", seed, a, b)
			}
			for i := range a {
				if !a[i].Equal(b[i]) {
					t.Fatalf("seed %d: fallback %v != indexed %v", seed, a, b)
				}
			}
		}
		for _, name := range partNames {
			a, err := mgrNoIx.QueryBackward(path, 0, 3, gom.String(name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := mgrIx.QueryBackward(path, 0, 3, gom.String(name))
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("seed %d bw(%q): fallback %v != indexed %v", seed, name, a, b)
			}
		}
	}
}

func TestManagerMaintainsIndexesOnUpdate(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := NewManager(c.Base, newPool())
	ix, err := mgr.CreateIndex(c.Path, Full, BinaryDecomposition(5))
	if err != nil {
		t.Fatal(err)
	}
	c.Base.MustInsertIntoSet(c.PartsSausage, gom.Ref(c.PartDoor))
	if err := mgr.Healthy(); err != nil {
		t.Fatal(err)
	}
	if err := verifyClean(ix); err != nil {
		t.Fatal(err)
	}
	prods, err := mgr.QueryBackward(c.Path, 1, 3, gom.String("Door"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(prods); len(got) != 2 {
		t.Errorf("after update, products with Door = %v", got)
	}
	// Dropping ends the index's maintenance and reclaims its pages.
	disk := ix.Pool().Disk()
	allocatedBefore := disk.NumPages()
	if err := mgr.DropIndex(ix); err != nil {
		t.Fatal(err)
	}
	if got := disk.NumPages(); got >= allocatedBefore {
		t.Errorf("drop reclaimed nothing: %d -> %d pages", allocatedBefore, got)
	}
	if len(ix.Partitions()) != 0 {
		t.Error("dropped index still holds partitions")
	}
	// Further updates must not fail against the dropped index.
	c.Base.MustInsertIntoSet(c.PartsSausage, gom.Ref(c.PartPepper))
	if err := mgr.Healthy(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerHook(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := NewManager(c.Base, newPool())
	var events []QueryEvent
	mgr.SetHook(func(e QueryEvent) { events = append(events, e) })
	mgr.QueryBackward(c.Path, 0, 3, gom.String("Door"))
	mgr.QueryForward(c.Path, 1, 2, gom.Ref(c.Prod560SEC))
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0].Forward || events[0].I != 0 || events[0].J != 3 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if !events[1].Forward || events[1].I != 1 || events[1].J != 2 {
		t.Errorf("event 1 = %+v", events[1])
	}
}
