package asr

import (
	"testing"

	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/relation"
)

// These tests reproduce the running example of §3 verbatim: the
// auxiliary relations E_0, E_1, E_2 and the four extensions for the path
// Division.Manufactures.Composition.Name over the Figure 2 company
// database, including the binary decomposition shown at the end of §3.

func companyFixture(t *testing.T) (*paperdb.Company, []*relation.Relation) {
	t.Helper()
	c := paperdb.BuildCompany()
	aux, err := BuildAuxiliaryRelations(c.Base, c.Path)
	if err != nil {
		t.Fatal(err)
	}
	return c, aux
}

func ref(id gom.OID) gom.Value { return gom.Ref(id) }

func TestAuxiliaryRelationsMatchPaper(t *testing.T) {
	c, aux := companyFixture(t)
	if len(aux) != 3 {
		t.Fatalf("aux count = %d, want 3", len(aux))
	}

	// E_0: (Division, ProdSET, Product) — ternary (set occurrence).
	e0 := aux[0]
	if e0.Arity() != 3 {
		t.Fatalf("E_0 arity = %d, want 3", e0.Arity())
	}
	wantE0 := []relation.Tuple{
		{ref(c.DivAuto), ref(c.ProdSetAuto), ref(c.Prod560SEC)},
		{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.Prod560SEC)},
		{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.ProdMBTrak)},
	}
	if e0.Cardinality() != len(wantE0) {
		t.Fatalf("E_0 = %v", e0)
	}
	for _, w := range wantE0 {
		if !contains(e0, w) {
			t.Errorf("E_0 missing %v\n%v", w, e0)
		}
	}

	// E_1: (Product, BasePartSET, BasePart). MBTrak has NULL Composition
	// so it contributes nothing; Sausage contributes (i11,i13,i14).
	e1 := aux[1]
	wantE1 := []relation.Tuple{
		{ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor)},
		{ref(c.ProdSausage), ref(c.PartsSausage), ref(c.PartPepper)},
	}
	if e1.Cardinality() != len(wantE1) {
		t.Fatalf("E_1 = %v", e1)
	}
	for _, w := range wantE1 {
		if !contains(e1, w) {
			t.Errorf("E_1 missing %v\n%v", w, e1)
		}
	}

	// E_2: (BasePart, VALUE_Name) — binary, atomic range.
	e2 := aux[2]
	if e2.Arity() != 2 {
		t.Fatalf("E_2 arity = %d", e2.Arity())
	}
	wantE2 := []relation.Tuple{
		{ref(c.PartDoor), gom.String("Door")},
		{ref(c.PartPepper), gom.String("Pepper")},
	}
	if e2.Cardinality() != len(wantE2) {
		t.Fatalf("E_2 = %v", e2)
	}
	for _, w := range wantE2 {
		if !contains(e2, w) {
			t.Errorf("E_2 missing %v\n%v", w, e2)
		}
	}
}

func TestEmptySetProducesNullAuxTuple(t *testing.T) {
	// Definition 3.3 case 2: an empty set contributes
	// (id(o), id(set), NULL).
	c := paperdb.BuildCompany()
	// Give Space a fresh, empty ProdSET.
	emptySet := c.Base.MustNew(c.Schema.MustLookup("ProdSET"))
	c.Base.MustSetAttr(c.DivSpace, "Manufactures", gom.Ref(emptySet.ID()))
	aux, err := BuildAuxiliaryRelations(c.Base, c.Path)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.Tuple{ref(c.DivSpace), ref(emptySet.ID()), nil}
	if !contains(aux[0], want) {
		t.Fatalf("E_0 missing empty-set tuple %v:\n%v", want, aux[0])
	}
}

func TestCanonicalExtensionMatchesPaper(t *testing.T) {
	c, aux := companyFixture(t)
	can, err := BuildExtension(Canonical, "E_can", aux)
	if err != nil {
		t.Fatal(err)
	}
	// Complete paths: Auto→560SEC→Door and Truck→560SEC→Door.
	want := []relation.Tuple{
		{ref(c.DivAuto), ref(c.ProdSetAuto), ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor), gom.String("Door")},
		{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor), gom.String("Door")},
	}
	if can.Cardinality() != len(want) {
		t.Fatalf("E_can:\n%v", can)
	}
	for _, w := range want {
		if !contains(can, w) {
			t.Errorf("E_can missing %v:\n%v", w, can)
		}
	}
}

func TestLeftCompleteExtensionMatchesPaper(t *testing.T) {
	c, aux := companyFixture(t)
	left, err := BuildExtension(LeftComplete, "E_left", aux)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's E_left: the complete rows plus (i2,i5,i9,NULL,NULL,NULL).
	want := []relation.Tuple{
		{ref(c.DivAuto), ref(c.ProdSetAuto), ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor), gom.String("Door")},
		{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor), gom.String("Door")},
		{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.ProdMBTrak), nil, nil, nil},
	}
	if left.Cardinality() != len(want) {
		t.Fatalf("E_left:\n%v", left)
	}
	for _, w := range want {
		if !contains(left, w) {
			t.Errorf("E_left missing %v:\n%v", w, left)
		}
	}
}

func TestRightCompleteExtensionMatchesPaper(t *testing.T) {
	c, aux := companyFixture(t)
	right, err := BuildExtension(RightComplete, "E_right", aux)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's E_right: complete rows plus (NULL,NULL,i11,i13,i14,"Pepper").
	// Our fixture also has the dangling BasePartSET i10 = {Door}: the path
	// i10→Door→"Door" is right-complete too.
	want := []relation.Tuple{
		{ref(c.DivAuto), ref(c.ProdSetAuto), ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor), gom.String("Door")},
		{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor), gom.String("Door")},
		{nil, nil, ref(c.ProdSausage), ref(c.PartsSausage), ref(c.PartPepper), gom.String("Pepper")},
	}
	for _, w := range want {
		if !contains(right, w) {
			t.Errorf("E_right missing %v:\n%v", w, right)
		}
	}
	// No left-dead-end rows (MBTrak's NULL Composition must not appear).
	bad := relation.Tuple{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.ProdMBTrak), nil, nil, nil}
	if contains(right, bad) {
		t.Errorf("E_right contains non-right-complete row %v", bad)
	}
}

func TestFullExtensionMatchesPaper(t *testing.T) {
	c, aux := companyFixture(t)
	full, err := BuildExtension(Full, "E_full", aux)
	if err != nil {
		t.Fatal(err)
	}
	// The three rows printed in the paper, §3.
	want := []relation.Tuple{
		{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.ProdMBTrak), nil, nil, nil},
		{nil, nil, ref(c.ProdSausage), ref(c.PartsSausage), ref(c.PartPepper), gom.String("Pepper")},
		{ref(c.DivAuto), ref(c.ProdSetAuto), ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor), gom.String("Door")},
		{ref(c.DivTruck), ref(c.ProdSetTruck), ref(c.Prod560SEC), ref(c.Parts560SEC), ref(c.PartDoor), gom.String("Door")},
	}
	for _, w := range want {
		if !contains(full, w) {
			t.Errorf("E_full missing %v:\n%v", w, full)
		}
	}
	// Full contains left and right.
	left, _ := BuildExtension(LeftComplete, "E_left", aux)
	right, _ := BuildExtension(RightComplete, "E_right", aux)
	for _, sub := range []*relation.Relation{left, right} {
		sub.Each(func(tu relation.Tuple) bool {
			if !contains(full, tu) {
				t.Errorf("E_full missing %s row %v", sub.Name(), tu)
			}
			return true
		})
	}
}

func TestBinaryDecompositionMatchesPaper(t *testing.T) {
	c, aux := companyFixture(t)
	can, err := BuildExtension(Canonical, "E_can", aux)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Decompose(can, BinaryDecomposition(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("binary decomposition: %d partitions, want 5", len(parts))
	}
	// The five binary partitions printed at the end of §3.
	checks := []struct {
		idx  int
		want relation.Tuple
	}{
		{0, relation.Tuple{ref(c.DivAuto), ref(c.ProdSetAuto)}},
		{1, relation.Tuple{ref(c.ProdSetAuto), ref(c.Prod560SEC)}},
		{2, relation.Tuple{ref(c.Prod560SEC), ref(c.Parts560SEC)}},
		{3, relation.Tuple{ref(c.Parts560SEC), ref(c.PartDoor)}},
		{4, relation.Tuple{ref(c.PartDoor), gom.String("Door")}},
	}
	for _, ch := range checks {
		if !contains(parts[ch.idx], ch.want) {
			t.Errorf("partition %d missing %v:\n%v", ch.idx, ch.want, parts[ch.idx])
		}
	}
	// Losslessness (Theorem 3.9) on the paper example.
	back, err := Recompose("E_can'", parts)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(can) {
		t.Errorf("recomposition diverges:\nwant\n%v\ngot\n%v", can, back)
	}
}

func TestRobotLinearPathExtensions(t *testing.T) {
	r := paperdb.BuildRobots()
	aux, err := BuildAuxiliaryRelations(r.Base, r.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(aux) != 4 {
		t.Fatalf("aux count = %d", len(aux))
	}
	can, err := BuildExtension(Canonical, "E_can", aux)
	if err != nil {
		t.Fatal(err)
	}
	// All three robots' tools come from RobClone in Utopia.
	want := []relation.Tuple{
		{ref(r.R2D2), ref(r.ArmR2D2), ref(r.Welder), ref(r.RobClone), gom.String("Utopia")},
		{ref(r.X4D5), ref(r.ArmX4D5), ref(r.Gripper), ref(r.RobClone), gom.String("Utopia")},
		{ref(r.Robi), ref(r.ArmRobi), ref(r.Gripper), ref(r.RobClone), gom.String("Utopia")},
	}
	if can.Cardinality() != len(want) {
		t.Fatalf("E_can:\n%v", can)
	}
	for _, w := range want {
		if !contains(can, w) {
			t.Errorf("E_can missing %v", w)
		}
	}
	// Linear path: arity is n+1 = 5, and for this fully-connected base
	// all four extensions coincide.
	full, _ := BuildExtension(Full, "E_full", aux)
	if !full.Equal(can) {
		t.Errorf("linear fully-defined base: full != can:\n%v\n%v", full, can)
	}
}
