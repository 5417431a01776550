package asr

import (
	"fmt"

	"asr/internal/gom"
	"asr/internal/relation"
)

// BuildAuxiliaryRelations materializes E_0 … E_{n-1} for the path over
// the object base (Definition 3.3):
//
//   - For a single-valued A_j, E_{j-1} is binary and holds
//     (id(o_{j-1}), id(o_j)) for every o_{j-1} with o_{j-1}.A_j = o_j.
//     When t_j is atomic, id(o_j) is the attribute value itself.
//   - For a set-valued A_j, E_{j-1} is ternary and holds
//     (id(o_{j-1}), id(o'_j), id(o_j)) per set element, and
//     (id(o_{j-1}), id(o'_j), NULL) when the set is empty.
//
// Objects of subtypes of the domain type participate (strong typing with
// substitutability). Objects whose A_j is NULL contribute nothing.
func BuildAuxiliaryRelations(ob *gom.ObjectBase, path *gom.PathExpression) ([]*relation.Relation, error) {
	if ob == nil || path == nil {
		return nil, fmt.Errorf("asr: BuildAuxiliaryRelations: nil object base or path")
	}
	out := make([]*relation.Relation, 0, path.Len())
	for j := 1; j <= path.Len(); j++ {
		step := path.Step(j)
		var rel *relation.Relation
		name := fmt.Sprintf("E_%d", j-1)
		if step.IsSetOccurrence() {
			rel = relation.New(name,
				"OID_"+step.Domain.Name(), "OID_"+step.Set.Name(), colName(step.Range, step))
		} else {
			rel = relation.New(name, "OID_"+step.Domain.Name(), colName(step.Range, step))
		}
		var targets []gom.Value
		for _, id := range ob.Extent(step.Domain, true) {
			o, ok := ob.Get(id)
			if !ok {
				continue
			}
			var set gom.Value
			set, targets = o.Follow(step, targets[:0])
			switch {
			case !step.IsSetOccurrence():
				for _, v := range targets {
					rel.MustInsert(relation.Tuple{gom.Ref(id), v})
				}
			case set != nil && len(targets) == 0:
				rel.MustInsert(relation.Tuple{gom.Ref(id), set, nil})
			default:
				for _, e := range targets {
					rel.MustInsert(relation.Tuple{gom.Ref(id), set, e})
				}
			}
		}
		out = append(out, rel)
	}
	return out, nil
}

func colName(t *gom.Type, step gom.PathStep) string {
	if t.Kind() == gom.AtomicType {
		return "VALUE_" + step.Attr
	}
	return "OID_" + t.Name()
}

// pathGraph is an in-memory, column-level adjacency view of the object
// base restricted to a path expression: column c holds the values of the
// relation column S_c (OIDs, set-object OIDs, or atomic values for an
// atomic t_n), and edges connect consecutive columns exactly where the
// auxiliary relations hold tuples. It answers the successor/predecessor
// queries that extension construction, query evaluation checks, and
// incremental maintenance need.
type pathGraph struct {
	path *gom.PathExpression
	m    int // last column index (n + k)
	succ []map[string][]gom.Value
	pred []map[string][]gom.Value
}

// newPathGraph builds the adjacency from the object base.
func newPathGraph(ob *gom.ObjectBase, path *gom.PathExpression) (*pathGraph, error) {
	g := &pathGraph{path: path, m: path.Arity() - 1}
	g.succ = make([]map[string][]gom.Value, g.m+1)
	g.pred = make([]map[string][]gom.Value, g.m+1)
	for c := 0; c <= g.m; c++ {
		g.succ[c] = map[string][]gom.Value{}
		g.pred[c] = map[string][]gom.Value{}
	}
	for j := 1; j <= path.Len(); j++ {
		step := path.Step(j)
		domCol := path.ObjectColumn(j - 1)
		var targets []gom.Value
		for _, id := range ob.Extent(step.Domain, true) {
			o, ok := ob.Get(id)
			if !ok {
				continue
			}
			var set gom.Value
			set, targets = o.Follow(step, targets[:0])
			col, from := domCol, gom.Value(gom.Ref(id))
			if set != nil {
				g.addEdge(col, from, set)
				col, from = col+1, set
			}
			for _, v := range targets {
				g.addEdge(col, from, v)
			}
		}
	}
	return g, nil
}

// addEdge records from(at column c) → to(at column c+1), deduplicated;
// it reports whether the edge was actually new. Maintenance rollback
// relies on the report to reverse exactly the effective mutations.
func (g *pathGraph) addEdge(c int, from, to gom.Value) bool {
	fk, tk := gom.ValueString(from), gom.ValueString(to)
	for _, v := range g.succ[c][fk] {
		if gom.ValuesEqual(v, to) {
			return false
		}
	}
	g.succ[c][fk] = append(g.succ[c][fk], to)
	g.pred[c+1][tk] = append(g.pred[c+1][tk], from)
	return true
}

// removeEdge deletes from → to at column c; it reports whether the edge
// existed.
func (g *pathGraph) removeEdge(c int, from, to gom.Value) bool {
	fk, tk := gom.ValueString(from), gom.ValueString(to)
	removed := false
	ss := g.succ[c][fk]
	for i, v := range ss {
		if gom.ValuesEqual(v, to) {
			g.succ[c][fk] = append(ss[:i], ss[i+1:]...)
			removed = true
			break
		}
	}
	if len(g.succ[c][fk]) == 0 {
		delete(g.succ[c], fk)
	}
	ps := g.pred[c+1][tk]
	for i, v := range ps {
		if gom.ValuesEqual(v, from) {
			g.pred[c+1][tk] = append(ps[:i], ps[i+1:]...)
			break
		}
	}
	if len(g.pred[c+1][tk]) == 0 {
		delete(g.pred[c+1], tk)
	}
	return removed
}

// successors returns the column-(c+1) values reachable from v at column
// c; empty means a dead end.
func (g *pathGraph) successors(c int, v gom.Value) []gom.Value {
	if c >= g.m {
		return nil
	}
	return g.succ[c][gom.ValueString(v)]
}

// predecessors returns the column-(c-1) values referencing v at column c.
func (g *pathGraph) predecessors(c int, v gom.Value) []gom.Value {
	if c <= 0 {
		return nil
	}
	return g.pred[c][gom.ValueString(v)]
}

// referenced reports whether v at column c is the target of some edge.
func (g *pathGraph) referenced(c int, v gom.Value) bool {
	return len(g.predecessors(c, v)) > 0
}
