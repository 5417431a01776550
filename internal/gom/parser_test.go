package gom

import (
	"strings"
	"testing"
)

func TestParseRobotSchema(t *testing.T) {
	src := `
		-- The robot model of §2.2.
		type ROBOT SET is {ROBOT};
		type ROBOT is [Name: STRING, Arm: ARM];
		type ARM is [Kinematics: STRING, MountedTool: TOOL];
		type TOOL is [Function: STRING, ManufacturedBy: MANUFACTURER];
		type MANUFACTURER is [Name: STRING, Location: STRING];
		var OurRobots: ROBOT SET;
	`
	s, vars, err := ParseSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	set, ok := s.Lookup("ROBOT_SET")
	if !ok || set.Kind() != SetType {
		t.Fatal("multi-word type name 'ROBOT SET' not normalized to ROBOT_SET")
	}
	robot := s.MustLookup("ROBOT")
	if set.Elem() != robot {
		t.Error("ROBOT_SET element type wrong")
	}
	a, ok := robot.Attribute("Arm")
	if !ok || a.Type.Name() != "ARM" {
		t.Error("ROBOT.Arm missing or mistyped")
	}
	if len(vars) != 1 || vars[0].Name != "OurRobots" || vars[0].Type != set {
		t.Errorf("vars = %+v", vars)
	}
}

func TestParseSupertypesAndLists(t *testing.T) {
	src := `
		type VEHICLE is [Name: STRING];
		type MOTORIZED is [Horsepower: INTEGER];
		type CAR is supertypes (VEHICLE, MOTORIZED) [Doors: INTEGER];
		type CARLIST is <CAR>;
	`
	s, _, err := ParseSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	car := s.MustLookup("CAR")
	if got := len(car.Attributes()); got != 3 {
		t.Errorf("CAR attributes = %d, want 3", got)
	}
	if !car.IsSubtypeOf(s.MustLookup("VEHICLE")) || !car.IsSubtypeOf(s.MustLookup("MOTORIZED")) {
		t.Error("CAR not a subtype of both VEHICLE and MOTORIZED")
	}
	cl := s.MustLookup("CARLIST")
	if cl.Kind() != ListType || cl.Elem() != car {
		t.Error("CARLIST wrong")
	}
}

func TestParseForwardAndRecursiveReferences(t *testing.T) {
	src := `
		type A is [Next: B];
		type B is [Back: A];
		type Part is [Sub: PartSET];
		type PartSET is {Part};
	`
	s, _, err := ParseSchema(src)
	if err != nil {
		t.Fatalf("mutually recursive schema rejected: %v", err)
	}
	a := s.MustLookup("A")
	b := s.MustLookup("B")
	if attr, _ := a.Attribute("Next"); attr.Type != b {
		t.Error("A.Next mistyped")
	}
	if attr, _ := b.Attribute("Back"); attr.Type != a {
		t.Error("B.Back mistyped")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undefined type", `type A is [X: NOPE];`, "undefined type"},
		{"duplicate type", `type A is [X: STRING]; type A is [Y: STRING];`, "twice"},
		{"supertype cycle", `type A is supertypes (B) [ ]; type B is supertypes (A) [ ];`, "cycle"},
		{"powerset", `type S is {STRING2}; type STRING2 is {STRING};`, "powerset"},
		{"set supertype", `type S is {STRING}; type T is supertypes (S) [ ];`, "not tuple-structured"},
		{"missing semicolon", `type A is [X: STRING]`, "expected"},
		{"garbage", `typo A is [X: STRING];`, "expected 'type' or 'var'"},
		{"bad var", `var V: NOPE;`, "undefined type"},
		{"duplicate attr", `type A is [X: STRING, X: STRING];`, "duplicate attribute"},
	}
	for _, c := range cases {
		_, _, err := ParseSchema(c.src)
		if err == nil {
			t.Errorf("%s: accepted %q", c.name, c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
		// line comment
		type A is [X: STRING]; -- trailing comment
		-- full line
		var V: A;
	`
	_, vars, err := ParseSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 {
		t.Errorf("vars = %v", vars)
	}
}

func TestDefinitionRoundTrip(t *testing.T) {
	src := `
		type MANUFACTURER is [Name: STRING, Location: STRING];
		type TOOL is [Function: STRING, ManufacturedBy: MANUFACTURER];
	`
	s1, _, err := ParseSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	// Re-parse the rendered definitions; the result must look the same.
	var rendered strings.Builder
	for _, typ := range s1.Types() {
		if typ.Kind() != AtomicType {
			rendered.WriteString(typ.Definition())
			rendered.WriteString("\n")
		}
	}
	s2, _, err := ParseSchema(rendered.String())
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v", rendered.String(), err)
	}
	tool := s2.MustLookup("TOOL")
	if a, ok := tool.Attribute("ManufacturedBy"); !ok || a.Type.Name() != "MANUFACTURER" {
		t.Error("round-tripped schema lost TOOL.ManufacturedBy")
	}
}
