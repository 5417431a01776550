package asr

import (
	"context"
	"maps"
	"math/rand"
	"testing"

	"asr/internal/gom"
)

// middleFixture builds a schema where two paths share an interior
// segment only: EMP.WorksIn.LocatedIn.Mayor and GUEST.Visits.LocatedIn.
// Mayor share the DEPT→CITY→PERSON suffix... to force a *middle* share,
// the paths continue differently after the common part:
//
//	p: EMP.WorksIn.LocatedIn.Mayor.Name   (EMP→DEPT→CITY→PERSON→STRING)
//	q: GUEST.Visits.LocatedIn.Mayor.Age   (GUEST→DEPT→CITY→PERSON→INTEGER)
//
// Shared steps: LocatedIn (DEPT→CITY) and Mayor (CITY→PERSON) — interior
// on both sides, so only the full extension admits sharing (§5.4).
func middleFixture(t *testing.T) (*gom.ObjectBase, *gom.PathExpression, *gom.PathExpression) {
	t.Helper()
	schema, _, err := gom.ParseSchema(`
		type PERSON is [Name: STRING, Age: INTEGER];
		type CITY   is [Mayor: PERSON];
		type DEPT   is [LocatedIn: CITY];
		type EMP    is [WorksIn: DEPT];
		type GUEST  is [Visits: DEPT];
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob := gom.NewObjectBase(schema)
	mayor := ob.MustNew(schema.MustLookup("PERSON"))
	ob.MustSetAttr(mayor.ID(), "Name", gom.String("Frank"))
	ob.MustSetAttr(mayor.ID(), "Age", gom.Integer(61))
	city := ob.MustNew(schema.MustLookup("CITY"))
	ob.MustSetAttr(city.ID(), "Mayor", gom.Ref(mayor.ID()))
	dept := ob.MustNew(schema.MustLookup("DEPT"))
	ob.MustSetAttr(dept.ID(), "LocatedIn", gom.Ref(city.ID()))
	emp := ob.MustNew(schema.MustLookup("EMP"))
	ob.MustSetAttr(emp.ID(), "WorksIn", gom.Ref(dept.ID()))
	guest := ob.MustNew(schema.MustLookup("GUEST"))
	ob.MustSetAttr(guest.ID(), "Visits", gom.Ref(dept.ID()))

	p := gom.MustResolvePath(schema.MustLookup("EMP"), "WorksIn", "LocatedIn", "Mayor", "Name")
	q := gom.MustResolvePath(schema.MustLookup("GUEST"), "Visits", "LocatedIn", "Mayor", "Age")
	return ob, p, q
}

func TestMiddleSegmentSharingRequiresFull(t *testing.T) {
	_, p, q := middleFixture(t)
	plan, err := PlanSharing(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Extension != Full {
		t.Errorf("interior segment must require Full sharing, got %v", plan.Extension)
	}
	if plan.Length != 2 || plan.PStart != 1 || plan.QStart != 1 {
		t.Errorf("plan = %+v", plan)
	}
	// The derived decompositions isolate steps [1,3] as one partition:
	// (0, 1, 3, 4) in column space for both paths.
	want := "(0, 1, 3, 4)"
	if plan.PDec.String() != want || plan.QDec.String() != want {
		t.Errorf("decompositions = %v / %v, want %s", plan.PDec, plan.QDec, want)
	}
	if plan.PPartIdx != 1 || plan.QPartIdx != 1 {
		t.Errorf("shared partition indexes = %d / %d", plan.PPartIdx, plan.QPartIdx)
	}
}

func TestMiddleSegmentSharedQueries(t *testing.T) {
	ob, p, q := middleFixture(t)
	pair, err := buildShared(ob, p, q, newPool())
	if err != nil {
		t.Fatal(err)
	}
	names, err := pair.P.Query(context.Background(), false, 0, 4, gom.String("Frank"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(names); len(got) != 1 {
		t.Errorf("P backward = %v", got)
	}
	guests, err := pair.Q.Query(context.Background(), false, 0, 4, gom.Integer(61))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(guests); len(got) != 1 {
		t.Errorf("Q backward = %v", got)
	}
	if pair.SharedPartition().Owners() != 2 {
		t.Errorf("shared partition owners = %d", pair.SharedPartition().Owners())
	}
}

func TestSharedPartitionSurvivesFirstDrop(t *testing.T) {
	ob, p, q := middleFixture(t)
	pool := newPool()
	pair, err := buildShared(ob, p, q, pool)
	if err != nil {
		t.Fatal(err)
	}
	shared := pair.SharedPartition()
	// Releasing the first index keeps the shared partition alive.
	if err := pair.P.ReleasePages(); err != nil {
		t.Fatal(err)
	}
	if shared.Owners() != 1 {
		t.Fatalf("owners after first release = %d", shared.Owners())
	}
	// The second index still answers through the shared partition.
	guests, err := pair.Q.Query(context.Background(), false, 0, 4, gom.Integer(61))
	if err != nil {
		t.Fatal(err)
	}
	if len(guests) != 1 {
		t.Errorf("Q backward after P release = %v", guests)
	}
	// Releasing the second owner reclaims everything.
	pagesBefore := pool.Disk().NumPages()
	if err := pair.Q.ReleasePages(); err != nil {
		t.Fatal(err)
	}
	if shared.Owners() != 0 {
		t.Errorf("owners after second release = %d", shared.Owners())
	}
	if got := pool.Disk().NumPages(); got >= pagesBefore {
		t.Errorf("no pages reclaimed: %d -> %d", pagesBefore, got)
	}
}

func TestPlanSharingRejectsDisjointPaths(t *testing.T) {
	ob, p, _ := middleFixture(t)
	// p traverses PERSON.Name; PERSON.Age shares no step with it.
	other := gom.MustResolvePath(ob.Schema().MustLookup("PERSON"), "Age")
	if _, err := PlanSharing(p, other); err == nil {
		t.Error("disjoint paths accepted")
	}
}

// A Full pair sharing an interior partition is maintained by probing
// that partition, and both sides' searches of an update must read it as
// it was before the update: the Manager searches both before it writes
// either. Under retargets at every step, renames and deletions, both
// sides stay equal to a fresh build of the pair.
func TestMiddleSegmentSharedMaintenance(t *testing.T) {
	ob, p, q := middleFixture(t)
	schema := ob.Schema()
	rng := rand.New(rand.NewSource(9))
	types := map[string]*gom.Type{}
	for _, n := range []string{"PERSON", "CITY", "DEPT", "EMP", "GUEST"} {
		types[n] = schema.MustLookup(n)
		for i := 0; i < 6; i++ {
			ob.MustNew(types[n])
		}
	}
	pick := func(n string) gom.OID {
		ext := ob.Extent(types[n], false)
		return ext[rng.Intn(len(ext))]
	}
	attrs := [][3]string{{"EMP", "WorksIn", "DEPT"}, {"GUEST", "Visits", "DEPT"}, {"DEPT", "LocatedIn", "CITY"}, {"CITY", "Mayor", "PERSON"}}
	for _, a := range attrs {
		for _, id := range ob.Extent(types[a[0]], false) {
			ob.MustSetAttr(id, a[1], gom.Ref(pick(a[2])))
		}
	}
	for _, id := range ob.Extent(types["PERSON"], false) {
		ob.MustSetAttr(id, "Name", gom.String(partName(rng)))
		ob.MustSetAttr(id, "Age", gom.Integer(int64(rng.Intn(3))))
	}
	pair, err := NewManager(ob, newPool()).CreateShared(p, q)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 60; op++ {
		switch r := rng.Intn(6); {
		case r < 4:
			a := attrs[r]
			ob.MustSetAttr(pick(a[0]), a[1], gom.Ref(pick(a[2])))
		case r == 4:
			ob.MustSetAttr(pick("PERSON"), "Age", gom.Integer(int64(rng.Intn(3))))
		default:
			n := []string{"CITY", "DEPT", "PERSON"}[rng.Intn(3)]
			if len(ob.Extent(types[n], false)) > 2 {
				if err := ob.Delete(pick(n)); err != nil {
					t.Fatal(err)
				}
			}
		}
		fresh, err := buildShared(ob, p, q, newPool())
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range [][2]*Index{{pair.P, fresh.P}, {pair.Q, fresh.Q}} {
			if err := side[0].QuarantineReason(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			for i, pp := range side[0].parts {
				if got, want := storedCounts(t, pp.Part), storedCounts(t, side[1].parts[i].Part); !maps.Equal(got, want) {
					t.Fatalf("op %d: %s partition %d stores %v, a rebuild %v", op, side[0].path, i, got, want)
				}
			}
		}
	}
}
