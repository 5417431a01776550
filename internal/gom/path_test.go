package gom

import (
	"testing"
)

// robotSchema builds the §2.2 schema (linear path).
func robotSchema(t *testing.T) *Schema {
	t.Helper()
	s, _, err := ParseSchema(`
		type ROBOT_SET is {ROBOT};
		type ROBOT is [Name: STRING, Arm: ARM];
		type ARM is [Kinematics: STRING, MountedTool: TOOL];
		type TOOL is [Function: STRING, ManufacturedBy: MANUFACTURER];
		type MANUFACTURER is [Name: STRING, Location: STRING];
	`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// companySchema builds the §2.3 schema (path with set occurrences).
func companySchema(t *testing.T) *Schema {
	t.Helper()
	s, _, err := ParseSchema(`
		type Company is {Division};
		type Division is [Name: STRING, Manufactures: ProdSET];
		type ProdSET is {Product};
		type Product is [Name: STRING, Composition: BasePartSET];
		type BasePartSET is {BasePart};
		type BasePart is [Name: STRING, Price: DECIMAL];
	`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLinearPathResolution(t *testing.T) {
	s := robotSchema(t)
	p, err := ResolvePath(s.MustLookup("ROBOT"), "Arm", "MountedTool", "ManufacturedBy", "Location")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Errorf("Len = %d, want 4", p.Len())
	}
	if !p.IsLinear() || p.SetOccurrences() != 0 {
		t.Errorf("linear path misclassified: linear=%v k=%d", p.IsLinear(), p.SetOccurrences())
	}
	if p.Arity() != 5 {
		t.Errorf("Arity = %d, want n+k+1 = 5", p.Arity())
	}
	if got := p.String(); got != "ROBOT.Arm.MountedTool.ManufacturedBy.Location" {
		t.Errorf("String = %q", got)
	}
	cols := p.ColumnTypes()
	wantCols := []string{"ROBOT", "ARM", "TOOL", "MANUFACTURER", "STRING"}
	for i, w := range wantCols {
		if cols[i].Name() != w {
			t.Errorf("column %d = %s, want %s", i, cols[i].Name(), w)
		}
	}
}

func TestSetPathResolution(t *testing.T) {
	s := companySchema(t)
	p, err := ResolvePath(s.MustLookup("Division"), "Manufactures", "Composition", "Name")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3 (n)", p.Len())
	}
	if p.SetOccurrences() != 2 {
		t.Errorf("SetOccurrences = %d, want 2 (k)", p.SetOccurrences())
	}
	if p.Arity() != 6 {
		t.Errorf("Arity = %d, want n+k+1 = 6", p.Arity())
	}
	// Columns per Definition 3.2: Division, ProdSET, Product, BasePartSET, BasePart, STRING.
	want := []string{"Division", "ProdSET", "Product", "BasePartSET", "BasePart", "STRING"}
	for i, typ := range p.ColumnTypes() {
		if typ.Name() != want[i] {
			t.Errorf("column %d = %s, want %s", i, typ.Name(), want[i])
		}
	}
	// Object columns: t_0 -> 0, t_1 (Product) -> 2, t_2 (BasePart) -> 4, t_3 (Name) -> 5.
	for i, want := range []int{0, 2, 4, 5} {
		if got := p.ObjectColumn(i); got != want {
			t.Errorf("ObjectColumn(%d) = %d, want %d", i, got, want)
		}
	}
	// StepOfColumn is the inverse.
	for col, want := range []struct {
		step  int
		isSet bool
	}{{0, false}, {1, true}, {1, false}, {2, true}, {2, false}, {3, false}} {
		step, isSet := p.StepOfColumn(col)
		if step != want.step || isSet != want.isSet {
			t.Errorf("StepOfColumn(%d) = (%d,%v), want (%d,%v)", col, step, isSet, want.step, want.isSet)
		}
	}
}

func TestPathValidationErrors(t *testing.T) {
	s := companySchema(t)
	div := s.MustLookup("Division")
	cases := []struct {
		name  string
		attrs []string
	}{
		{"unknown attribute", []string{"Manufactures", "Nope"}},
		{"atomic in the middle", []string{"Name", "Manufactures"}},
		{"empty path", nil},
	}
	for _, c := range cases {
		if _, err := ResolvePath(div, c.attrs...); err == nil {
			t.Errorf("%s: accepted %v", c.name, c.attrs)
		}
	}
	if _, err := ResolvePath(s.MustLookup("ProdSET"), "Name"); err == nil {
		t.Error("set-structured root accepted")
	}
	if _, err := ResolvePath(nil, "X"); err == nil {
		t.Error("nil root accepted")
	}
}

func TestPathThroughInheritedAttribute(t *testing.T) {
	s := NewSchema()
	str := s.MustLookup("STRING")
	manu := mustTuple(t, s, "MANUFACTURER", nil, []Attribute{{"Location", str}})
	tool := mustTuple(t, s, "TOOL", nil, []Attribute{{"ManufacturedBy", manu}})
	mustTuple(t, s, "LASER_TOOL", []*Type{tool}, nil)
	lt := s.MustLookup("LASER_TOOL")
	p, err := ResolvePath(lt, "ManufacturedBy", "Location")
	if err != nil {
		t.Fatalf("path through inherited attribute rejected: %v", err)
	}
	if p.Step(1).Domain != lt {
		t.Errorf("step 1 domain = %v, want LASER_TOOL", p.Step(1).Domain)
	}
}

func TestRecursivePath(t *testing.T) {
	s, _, err := ParseSchema(`
		type Part is [Name: STRING, Sub: PartSET];
		type PartSET is {Part};
	`)
	if err != nil {
		t.Fatalf("recursive schema rejected: %v", err)
	}
	p, err := ResolvePath(s.MustLookup("Part"), "Sub", "Sub", "Name")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 || p.SetOccurrences() != 2 {
		t.Errorf("recursive path n=%d k=%d, want 3/2", p.Len(), p.SetOccurrences())
	}
}

func TestSharedSegment(t *testing.T) {
	s := companySchema(t)
	div := s.MustLookup("Division")
	p := MustResolvePath(div, "Manufactures", "Composition", "Name")
	q := MustResolvePath(s.MustLookup("Product"), "Composition", "Name")
	pStart, qStart, l, ok := SharedSegment(p, q)
	if !ok || l != 2 || pStart != 1 || qStart != 0 {
		t.Errorf("SharedSegment = (%d,%d,%d,%v), want (1,0,2,true)", pStart, qStart, l, ok)
	}
	// No overlap with a path whose steps differ in domain type: the
	// Division.Name step is not a step of p.
	r := MustResolvePath(div, "Name")
	if _, _, _, ok := SharedSegment(p, r); ok {
		t.Error("unexpected shared segment with Division.Name")
	}
}

func TestSharedSegmentFinalStep(t *testing.T) {
	s := companySchema(t)
	p := MustResolvePath(s.MustLookup("Division"), "Manufactures", "Composition", "Name")
	r := MustResolvePath(s.MustLookup("BasePart"), "Name")
	pStart, qStart, l, ok := SharedSegment(p, r)
	// The final step BasePart.Name is common: domain BasePart, attr Name.
	if !ok || l != 1 || pStart != 2 || qStart != 0 {
		t.Errorf("SharedSegment = (%d,%d,%d,%v), want (2,0,1,true)", pStart, qStart, l, ok)
	}
}

// TestParsePathIsTheInverseOfString: the dot notation index specs, shell
// commands and the ASR manifest share round-trips, and its malformed
// spellings are errors, not panics.
func TestParsePathIsTheInverseOfString(t *testing.T) {
	s := companySchema(t)
	const dotted = "Division.Manufactures.Composition.Name"
	p, err := ParsePath(s, dotted)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != dotted || p.SetOccurrences() != 2 {
		t.Errorf("ParsePath(%q) = %s with %d set occurrences", dotted, p, p.SetOccurrences())
	}
	for _, bad := range []string{"", "Division", "NOPE.Name", "Division.Nope", "Division..Name"} {
		if _, err := ParsePath(s, bad); err == nil {
			t.Errorf("ParsePath(%q) accepted", bad)
		}
	}
}
