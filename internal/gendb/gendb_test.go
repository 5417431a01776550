package gendb

import (
	"testing"

	"asr/internal/gom"
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

// reaches reports whether dst is among src's level-(i+1) targets.
func reaches(db *Database, i int, src, dst gom.OID) bool {
	got, _ := db.Base.Reach(db.Path, i, i+1, gom.Ref(src))
	for _, v := range got {
		if v == gom.Ref(dst) {
			return true
		}
	}
	return false
}

func TestInsert(t *testing.T) {
	// Fan 1: the single-valued step is reassigned.
	db, err := Generate(Spec{N: 2, C: []int{20, 20, 20}, D: []int{10, 10}, Fan: []int{1, 1}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := db.Extents[0][0], db.Extents[1][5]
	if err := db.Insert(0, src, dst); err != nil {
		t.Fatal(err)
	}
	if !reaches(db, 0, src, dst) {
		t.Errorf("fan 1: %v does not reach %v", src, dst)
	}

	// Fan > 1: an existing set gains the target, a bare source gets a
	// fresh set.
	db, err = Generate(Spec{N: 2, C: []int{20, 20, 20}, D: []int{1, 10}, Fan: []int{3, 2}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	count := db.Base.Count()
	for _, src := range db.Extents[0] {
		dst := db.Extents[1][19]
		if err := db.Insert(0, src, dst); err != nil {
			t.Fatal(err)
		}
		if !reaches(db, 0, src, dst) {
			t.Errorf("%v does not reach %v", src, dst)
		}
	}
	if got, want := db.Base.Count(), count+19; got != want {
		t.Errorf("%d objects after the inserts, want %d: one fresh set per bare source", got, want)
	}

	// Unknown source, a source of the wrong level, and the last level,
	// which no reference step leaves.
	if err := db.Insert(0, 999999, db.Extents[1][0]); err == nil {
		t.Error("unknown source accepted")
	}
	if err := db.Insert(0, db.Extents[1][0], db.Extents[1][1]); err == nil {
		t.Error("level-1 source accepted for ins_0")
	}
	if err := db.Insert(2, db.Extents[2][0], db.Extents[2][1]); err == nil {
		t.Error("last-level source accepted")
	}
}
