package asr

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"asr/internal/btree"
	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/relation"
	"asr/internal/storage"
)

// treeEntries drains a tree into (key, val) pairs for byte comparison.
func treeEntries(t *testing.T, tr *btree.Tree) [][2][]byte {
	t.Helper()
	var out [][2][]byte
	if err := tr.Scan(func(k, v []byte) bool {
		out = append(out, [2][]byte{bytes.Clone(k), bytes.Clone(v)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSameIndexContents checks that two indexes over the same path
// store byte-identical partitions and answer the full query matrix
// identically — the bulk-vs-incremental equivalence at the heart of the
// build optimization.
func assertSameIndexContents(t *testing.T, label string, a, b *Index) {
	t.Helper()
	pa, pb := a.Partitions(), b.Partitions()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d vs %d partitions", label, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Lo != pb[i].Lo || pa[i].Hi != pb[i].Hi {
			t.Fatalf("%s: partition %d windows diverge", label, i)
		}
		for _, side := range []struct {
			name   string
			ta, tb *btree.Tree
		}{
			{"fwd", pa[i].Part.Forward(), pb[i].Part.Forward()},
			{"bwd", pa[i].Part.Backward(), pb[i].Part.Backward()},
		} {
			if side.ta.Len() != side.tb.Len() {
				t.Fatalf("%s: partition %d %s: Len %d vs %d", label, i, side.name, side.ta.Len(), side.tb.Len())
			}
			if err := side.ta.CheckInvariants(); err != nil {
				t.Fatalf("%s: partition %d %s: %v", label, i, side.name, err)
			}
			ea, eb := treeEntries(t, side.ta), treeEntries(t, side.tb)
			if len(ea) != len(eb) {
				t.Fatalf("%s: partition %d %s: %d vs %d entries", label, i, side.name, len(ea), len(eb))
			}
			for j := range ea {
				if !bytes.Equal(ea[j][0], eb[j][0]) || !bytes.Equal(ea[j][1], eb[j][1]) {
					t.Fatalf("%s: partition %d %s: entry %d diverges", label, i, side.name, j)
				}
			}
		}
	}
	assertSameQueryResults(t, label, a, b)
}

// logicalRelation is the undecomposed extension an index stores, by the
// paper's joins over the live object base.
func logicalRelation(t *testing.T, ix *Index) *relation.Relation {
	t.Helper()
	aux, err := BuildAuxiliaryRelations(ix.ob, ix.path)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := BuildExtension(ix.ext, "E_"+ix.ext.String(), aux)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// assertSameQueryResults runs every supported span forward and backward
// — sequential and parallel — from every value in the logical extension
// and compares result sets.
func assertSameQueryResults(t *testing.T, label string, a, b *Index) {
	t.Helper()
	logical := logicalRelation(t, a)
	n := a.Path().Len()
	colVals := make(map[int][]gom.Value)
	logical.Each(func(row relation.Tuple) bool {
		for step := 0; step <= n; step++ {
			c := a.Path().ObjectColumn(step)
			if v := row[c]; v != nil {
				colVals[step] = append(colVals[step], v)
			}
		}
		return true
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j <= n; j++ {
			if !a.Supports(i, j) {
				continue
			}
			for _, v := range colVals[i] {
				fa, errA := a.Query(context.Background(), true, i, j, v)
				fb, errB := b.Query(context.Background(), true, i, j, v)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s: fwd %d→%d: errors diverge: %v vs %v", label, i, j, errA, errB)
				}
				if !sameValueSet(fa, fb) {
					t.Fatalf("%s: fwd %d→%d from %v: %v vs %v", label, i, j, v, fa, fb)
				}
				fp, err := a.Query(context.Background(), true, i, j, v)
				if err != nil || !sameValueSet(fa, fp) {
					t.Fatalf("%s: fwd parallel %d→%d from %v: %v (%v)", label, i, j, v, fp, err)
				}
			}
			for _, v := range colVals[j] {
				ba, errA := a.Query(context.Background(), false, i, j, v)
				bb, errB := b.Query(context.Background(), false, i, j, v)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s: bwd %d→%d: errors diverge: %v vs %v", label, i, j, errA, errB)
				}
				if !sameValueSet(ba, bb) {
					t.Fatalf("%s: bwd %d→%d from %v: %v vs %v", label, i, j, v, ba, bb)
				}
				bp, err := a.Query(context.Background(), false, i, j, v)
				if err != nil || !sameValueSet(ba, bp) {
					t.Fatalf("%s: bwd parallel %d→%d from %v: %v (%v)", label, i, j, v, bp, err)
				}
			}
		}
	}
}

func sameValueSet(a, b []gom.Value) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, v := range a {
		seen[gom.ValueString(v)]++
	}
	for _, v := range b {
		seen[gom.ValueString(v)]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}

// buildIncremental materializes the same index as Build but inserts
// every projected row top-down, one key at a time — the pre-bulk-load
// reference the bulk loader is checked against.
func buildIncremental(ob *gom.ObjectBase, path *gom.PathExpression, ext Extension, dec Decomposition, pool *storage.BufferPool) (*Index, error) {
	m := path.Arity() - 1
	if err := dec.Validate(m); err != nil {
		return nil, err
	}
	rows, err := extensionRows(ob, path, ext)
	if err != nil {
		return nil, err
	}
	ix := &Index{ob: ob, path: path, ext: ext, dec: dec, pool: pool}
	for p := 0; p < dec.NumPartitions(); p++ {
		lo, hi := dec.Partition(p)
		part, err := NewPartition(pool, fmt.Sprintf("E_%s^%d,%d", ext, lo, hi), hi-lo+1)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			proj := row[lo : hi+1]
			if proj.IsAllNull() {
				continue
			}
			if err := part.AddProjected(proj); err != nil {
				return nil, err
			}
		}
		part.acquire()
		ix.parts = append(ix.parts, PlacedPartition{Lo: lo, Hi: hi, Part: part})
	}
	return ix, nil
}

func TestBuildEqualsBuildIncremental(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		ob, path := randomCompany(t, seed, 6, 10, 12)
		for _, ext := range Extensions {
			for _, dec := range []Decomposition{NoDecomposition(5), BinaryDecomposition(5), {0, 2, 5}} {
				bulk, err := Build(ob, path, ext, dec, newPool())
				if err != nil {
					t.Fatal(err)
				}
				incr, err := buildIncremental(ob, path, ext, dec, newPool())
				if err != nil {
					t.Fatal(err)
				}
				label := ext.String() + dec.String()
				assertSameIndexContents(t, label, bulk, incr)
				if err := verifyClean(bulk); err != nil {
					t.Fatalf("%s: bulk: %v", label, err)
				}
				if err := verifyClean(incr); err != nil {
					t.Fatalf("%s: incr: %v", label, err)
				}
			}
		}
	}
}

func TestRematerializeSwitchesDecomposition(t *testing.T) {
	ob, path := randomCompany(t, 5, 6, 10, 12)
	ix, err := Build(ob, path, Full, BinaryDecomposition(5), newPool())
	if err != nil {
		t.Fatal(err)
	}
	for _, dec := range []Decomposition{{0, 2, 5}, NoDecomposition(5), BinaryDecomposition(5)} {
		if err := ix.Rematerialize(dec); err != nil {
			t.Fatalf("rematerialize %v: %v", dec, err)
		}
		if ix.Decomposition().String() != dec.String() {
			t.Fatalf("decomposition not updated: %v", ix.Decomposition())
		}
		if err := verifyClean(ix); err != nil {
			t.Fatalf("after rematerialize %v: %v", dec, err)
		}
		fresh, err := Build(ob, path, Full, dec, newPool())
		if err != nil {
			t.Fatal(err)
		}
		assertSameIndexContents(t, "remat"+dec.String(), ix, fresh)
	}
	// A bad decomposition is rejected without touching the index.
	before := ix.Decomposition()
	if err := ix.Rematerialize(Decomposition{0, 3}); err == nil {
		t.Fatal("invalid decomposition accepted")
	}
	if ix.Decomposition().String() != before.String() {
		t.Fatal("failed rematerialize changed the decomposition")
	}
}

func TestRematerializeAfterMutationAndQuarantine(t *testing.T) {
	c := paperdb.BuildCompany()
	ix, err := Build(c.Base, c.Path, Full, BinaryDecomposition(5), newPool())
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the base behind the index's back: the stored rows are now
	// stale, the situation a quarantine models.
	schema := c.Base.Schema()
	part := c.Base.MustNew(schema.MustLookup("BasePart"))
	c.Base.MustSetAttr(part.ID(), "Name", gom.String("Axle"))
	ix.quarantine(ErrQuarantined)

	if err := ix.Rematerialize(Decomposition{0, 2, 5}); err != nil {
		t.Fatal(err)
	}
	if ix.Quarantined() {
		t.Fatal("rematerialize left the quarantine in place")
	}
	fresh, err := Build(c.Base, c.Path, Full, Decomposition{0, 2, 5}, newPool())
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndexContents(t, "post-mutation", ix, fresh)
}

func TestRematerializeRefusesSharedPartitions(t *testing.T) {
	ob, p := randomCompany(t, 11, 6, 10, 12)
	q := gom.MustResolvePath(ob.Schema().MustLookup("Product"), "Composition", "Name")
	pair, err := BuildShared(ob, p, q, newPool())
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.P.Rematerialize(pair.P.Decomposition()); err == nil {
		t.Fatal("rematerialize of an index with a shared partition accepted")
	}
}

func TestRematerializeReleasedIndex(t *testing.T) {
	c := paperdb.BuildCompany()
	ix, err := Build(c.Base, c.Path, Full, BinaryDecomposition(5), newPool())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.ReleasePages(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Rematerialize(NoDecomposition(5)); err == nil {
		t.Fatal("rematerialize of a released index accepted")
	}
}

func TestManagerRematerialize(t *testing.T) {
	c := paperdb.BuildCompany()
	mgr := NewManager(c.Base, newPool())
	ix, err := mgr.CreateIndex(c.Path, Full, BinaryDecomposition(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Rematerialize(ix, Decomposition{0, 2, 5}); err != nil {
		t.Fatal(err)
	}
	if err := verifyClean(ix); err != nil {
		t.Fatal(err)
	}
	// Maintenance keeps working against the re-cut partitions.
	schema := c.Base.Schema()
	part := c.Base.MustNew(schema.MustLookup("BasePart"))
	c.Base.MustSetAttr(part.ID(), "Name", gom.String("Axle"))
	if err := mgr.Healthy(); err != nil {
		t.Fatal(err)
	}
	if err := verifyClean(ix); err != nil {
		t.Fatalf("after maintained update: %v", err)
	}
	// Unmanaged indexes are rejected.
	other, err := Build(c.Base, c.Path, Canonical, NoDecomposition(5), newPool())
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Rematerialize(other, NoDecomposition(5)); err == nil {
		t.Fatal("unmanaged index accepted")
	}
}
