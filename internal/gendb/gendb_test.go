package gendb

import (
	"testing"

	"asr/internal/gom"
	"asr/internal/storage"
)

func smallSpec(seed int64) Spec {
	return Spec{
		N:    3,
		C:    []int{20, 40, 60, 80},
		D:    []int{15, 30, 40},
		Fan:  []int{2, 3, 2},
		Seed: seed,
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	db, err := Generate(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range db.Spec.C {
		if got := len(db.Extents[i]); got != c {
			t.Errorf("level %d: %d objects, want %d", i, got, c)
		}
	}
	st := db.Measure()
	for i, d := range db.Spec.D {
		if st.Defined[i] != d {
			t.Errorf("level %d: %d defined, want %d", i, st.Defined[i], d)
		}
	}
	// Each defined object references exactly fan distinct targets.
	for i := 0; i < db.Spec.N; i++ {
		for _, id := range db.Extents[i] {
			o, _ := db.Base.Get(id)
			if n := len(db.targetsOf(o)); n != 0 && n != db.Spec.Fan[i] {
				t.Errorf("level %d object %v: %d targets, want 0 or %d", i, id, n, db.Spec.Fan[i])
			}
		}
	}
	// Path expression resolves over the generated schema.
	if db.Path.Len() != 3 {
		t.Errorf("path length = %d", db.Path.Len())
	}
	if errs := db.Base.CheckIntegrity(); len(errs) != 0 {
		t.Fatalf("integrity: %v", errs)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Measure(), b.Measure()
	for i := range sa.Referenced {
		if sa.Referenced[i] != sb.Referenced[i] || sa.Reachable[i] != sb.Reachable[i] {
			t.Fatalf("same seed diverged: %+v vs %+v", sa, sb)
		}
	}
	c, err := Generate(smallSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Measure()
	same := true
	for i := range sa.Referenced {
		if sa.Referenced[i] != sc.Referenced[i] {
			same = false
		}
	}
	if same {
		t.Log("different seeds produced identical connectivity (possible but unlikely)")
	}
}

func TestGenerateLinearWhenFanOne(t *testing.T) {
	spec := Spec{N: 2, C: []int{10, 10, 10}, D: []int{8, 8}, Fan: []int{1, 1}, Seed: 3}
	db, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Path.IsLinear() {
		t.Error("fan-1 chain should resolve to a linear path")
	}
	if db.Path.Arity() != 3 {
		t.Errorf("arity = %d, want 3", db.Path.Arity())
	}
}

func TestGenerateSharingModes(t *testing.T) {
	base := Spec{N: 1, C: []int{200, 100}, D: []int{200}, Fan: []int{2}, Seed: 5}
	refd := map[SharingMode]int{}
	for _, mode := range []SharingMode{Uniform, Clustered, Skewed} {
		s := base
		s.Sharing = mode
		db, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		refd[mode] = db.Measure().Referenced[1]
	}
	// Skewed sharing concentrates references on fewer targets.
	if refd[Skewed] >= refd[Uniform] {
		t.Errorf("skewed referenced %d, uniform %d — expected skew to share harder",
			refd[Skewed], refd[Uniform])
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Spec{
		{N: 0},
		{N: 1, C: []int{5}, D: []int{1}, Fan: []int{1}},
		{N: 1, C: []int{5, 5}, D: []int{9}, Fan: []int{1}},       // d > c
		{N: 1, C: []int{5, 5}, D: []int{3}, Fan: []int{9}},       // fan > c_{i+1}
		{N: 1, C: []int{5, 5}, D: []int{3}, Fan: []int{0}},       // fan < 1
		{N: 2, C: []int{5, 5, 5}, D: []int{3}, Fan: []int{1, 1}}, // short D
		{N: 2, C: []int{5, 5, 5}, D: []int{3, 3}, Fan: []int{1}}, // short Fan
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

func TestPlacement(t *testing.T) {
	db, err := Generate(smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(storage.NewDisk(512), 0, storage.LRU)
	place, err := Place(db, pool, []int{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	// op_i = ceil(c_i / floor(512/100)) = ceil(c_i/5).
	for i, c := range db.Spec.C {
		want := (c + 4) / 5
		if got := place.Segments[i].NumPages(); got != want {
			t.Errorf("level %d pages = %d, want %d", i, got, want)
		}
	}
	// Records round-trip the reference lists.
	for i := 0; i < db.Spec.N; i++ {
		for _, id := range db.Extents[i] {
			o, _ := db.Base.Get(id)
			want := db.targetsOf(o)
			got, err := place.ReadRecord(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("object %v: %d refs stored, want %d", id, len(got), len(want))
			}
			seen := map[gom.OID]bool{}
			for _, g := range got {
				seen[g] = true
			}
			for _, w := range want {
				if !seen[w] {
					t.Fatalf("object %v: stored refs %v missing %v", id, got, w)
				}
			}
		}
	}
	// Undersized records rejected.
	if _, err := Place(db, pool, []int{10, 100, 100, 100}); err == nil {
		t.Error("undersized record accepted")
	}
}
