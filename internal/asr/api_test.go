package asr

import (
	"context"
	"strings"
	"testing"

	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/relation"
)

// Accessor and small-surface tests for the parts not hit by the
// behavioural suites.

func TestIndexAccessors(t *testing.T) {
	c := paperdb.BuildCompany()
	dec := Decomposition{0, 2, 5}
	ix, err := Build(c.Base, c.Path, LeftComplete, dec, newPool())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Path() != c.Path {
		t.Error("Path accessor broken")
	}
	if ix.Extension() != LeftComplete {
		t.Error("Extension accessor broken")
	}
	got := ix.Decomposition()
	if got.String() != dec.String() {
		t.Errorf("Decomposition = %v", got)
	}
	// The returned slice is a copy.
	got[0] = 99
	if ix.Decomposition()[0] != 0 {
		t.Error("Decomposition aliases internal storage")
	}
	if logical := logicalRelation(t, ix); logical.Cardinality() != 3 { // the left extension of the fixture
		t.Errorf("logical extension = %d rows", logical.Cardinality())
	}
	if s := ix.String(); !strings.Contains(s, "left") || !strings.Contains(s, "(0, 2, 5)") {
		t.Errorf("String = %q", s)
	}
	for _, pp := range ix.Partitions() {
		if pp.Part.Name() == "" {
			t.Error("partition without a name")
		}
		if pp.Part.Forward() == nil || pp.Part.Backward() == nil {
			t.Error("partition trees missing")
		}
	}
}

func TestDecompositionHelpers(t *testing.T) {
	bad := []Decomposition{
		nil,
		{0},
		{1, 4},
		{0, 3},
		{0, 2, 2, 4},
		{0, 3, 2, 4},
	}
	for _, d := range bad {
		if err := d.Validate(4); err == nil {
			t.Errorf("decomposition %v accepted for m=4", d)
		}
	}
}

func TestExtensionContainsAndNames(t *testing.T) {
	if Extension(42).String() == "" {
		t.Error("unknown extension has empty name")
	}
}

func TestNewPartitionIncrementalPath(t *testing.T) {
	// NewPartition (the incremental constructor) still backs the shared-
	// partition merge path; exercise it directly.
	p, err := NewPartition(newPool(), "test", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartition(newPool(), "bad", 1); err == nil {
		t.Error("arity 1 accepted")
	}
	rows := []relation.Tuple{
		{gom.Ref(1), gom.Ref(10)},
		{gom.Ref(1), gom.Ref(11)},
		{gom.Ref(2), gom.Ref(10)},
	}
	for _, r := range rows {
		if err := p.AddProjected(r); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate add bumps the refcount; one remove keeps it live.
	if err := p.AddProjected(rows[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.adjust(rows[0], -1); err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 3 {
		t.Fatalf("rows = %d", p.Rows())
	}
	fwd, err := p.LookupBatch(true, []gom.Value{gom.Ref(1)})
	if err != nil || len(fwd[0]) != 2 {
		t.Fatalf("LookupBatch(forward) = %v %v", fwd, err)
	}
	bwd, err := p.LookupBackward(gom.Ref(10))
	if err != nil || len(bwd) != 2 {
		t.Fatalf("LookupBackward = %v %v", bwd, err)
	}
	// Removing an untracked row errors.
	if err := p.adjust(relation.Tuple{gom.Ref(9), gom.Ref(9)}, -1); err == nil {
		t.Error("untracked removal accepted")
	}
	// Wrong arity rejected.
	if err := p.AddProjected(relation.Tuple{gom.Ref(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := p.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	// Bulk constructor rejects inconsistent refcounts.
	if _, err := NewPartitionBulk(newPool(), "bad", 2,
		map[string]relation.Tuple{"k": {gom.Ref(1), gom.Ref(2)}},
		map[string]int{"k": 0}); err == nil {
		t.Error("zero refcount accepted")
	}
}

func TestQuerySpansOutsidePartitions(t *testing.T) {
	// Queries whose span endpoints fall strictly inside partitions of a
	// coarse decomposition exercise partitionEntering and scanInterior
	// in both directions.
	c := paperdb.BuildCompany()
	ix, err := Build(c.Base, c.Path, Full, NoDecomposition(5), newPool())
	if err != nil {
		t.Fatal(err)
	}
	// i=1 (column 2) is strictly inside the single partition (0,5):
	// forward from Product.
	vals, err := ix.Query(context.Background(), true, 1, 3, gom.Ref(c.Prod560SEC))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || !vals[0].Equal(gom.String("Door")) {
		t.Errorf("forward inside partition = %v", vals)
	}
	// j=2 (column 4) strictly inside: backward to BasePart.
	anchors, err := ix.Query(context.Background(), false, 1, 2, gom.Ref(c.PartDoor))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(anchors); len(got) != 1 || got[0] != c.Prod560SEC {
		t.Errorf("backward inside partition = %v", got)
	}
}
