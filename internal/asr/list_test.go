package asr

import (
	"context"
	"testing"

	"asr/internal/gom"
)

// The paper treats ordered collections like sets for access support
// (§2.1: "the access support on ordered collection, i.e., lists, is
// analogous to sets"). These tests exercise a path through a
// list-valued attribute end to end: aux construction, extensions,
// queries, and incremental maintenance.

func listFixture(t *testing.T) (*gom.ObjectBase, *gom.PathExpression, gom.OID, gom.OID, gom.OID) {
	t.Helper()
	schema, _, err := gom.ParseSchema(`
		type Route is [Name: STRING, Stops: StopList];
		type StopList is <City>;
		type City is [Name: STRING];
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob := gom.NewObjectBase(schema)
	karlsruhe := ob.MustNew(schema.MustLookup("City"))
	ob.MustSetAttr(karlsruhe.ID(), "Name", gom.String("Karlsruhe"))
	mannheim := ob.MustNew(schema.MustLookup("City"))
	ob.MustSetAttr(mannheim.ID(), "Name", gom.String("Mannheim"))

	stops := ob.MustNew(schema.MustLookup("StopList"))
	if err := ob.AppendToList(stops.ID(), gom.Ref(karlsruhe.ID())); err != nil {
		t.Fatal(err)
	}

	route := ob.MustNew(schema.MustLookup("Route"))
	ob.MustSetAttr(route.ID(), "Name", gom.String("S-Bahn"))
	ob.MustSetAttr(route.ID(), "Stops", gom.Ref(stops.ID()))

	path := gom.MustResolvePath(schema.MustLookup("Route"), "Stops", "Name")
	return ob, path, route.ID(), stops.ID(), mannheim.ID()
}

func TestListPathResolvesLikeSet(t *testing.T) {
	_, path, _, _, _ := listFixture(t)
	if path.SetOccurrences() != 1 {
		t.Fatalf("list occurrence not counted: k = %d", path.SetOccurrences())
	}
	if path.Arity() != 4 { // Route, StopList, City, Name
		t.Fatalf("arity = %d, want 4", path.Arity())
	}
}

func TestListPathIndexAndQueries(t *testing.T) {
	ob, path, route, _, _ := listFixture(t)
	ix, err := Build(ob, path, Full, BinaryDecomposition(path.Arity()-1), newPool())
	if err != nil {
		t.Fatal(err)
	}
	routes, err := ix.Query(context.Background(), false, 0, 2, gom.String("Karlsruhe"))
	if err != nil {
		t.Fatal(err)
	}
	if got := OIDsOf(routes); len(got) != 1 || got[0] != route {
		t.Errorf("backward over list = %v, want [%v]", got, route)
	}
	names, err := ix.Query(context.Background(), true, 0, 2, gom.Ref(route))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || !names[0].Equal(gom.String("Karlsruhe")) {
		t.Errorf("forward over list = %v", names)
	}
}

func TestListPathMaintenance(t *testing.T) {
	for _, ext := range Extensions {
		ob, path, route, stops, mannheim := listFixture(t)
		ix, err := NewManager(ob, newPool()).CreateIndex(path, ext, NoDecomposition(path.Arity()-1))
		if err != nil {
			t.Fatal(err)
		}

		// Appending to the list fires the set-insertion hook.
		if err := ob.AppendToList(stops, gom.Ref(mannheim)); err != nil {
			t.Fatal(err)
		}
		if ix.QuarantineReason() != nil {
			t.Fatalf("%v: %v", ext, ix.QuarantineReason())
		}
		assertEqualsRebuild(t, ix, ext.String()+"/list-append")
		// A list may hold an element twice; the second append adds no edge.
		if err := ob.AppendToList(stops, gom.Ref(mannheim)); err != nil {
			t.Fatal(err)
		}
		assertEqualsRebuild(t, ix, ext.String()+"/list-append-again")

		routes, err := ix.Query(context.Background(), false, 0, 2, gom.String("Mannheim"))
		if err != nil {
			t.Fatal(err)
		}
		if got := OIDsOf(routes); len(got) != 1 || got[0] != route {
			t.Errorf("%v: after append, backward(Mannheim) = %v", ext, got)
		}
	}
}
