package asr

import (
	"slices"

	"asr/internal/gom"
	"asr/internal/relation"
)

// This file is §6's search for the rows an update changes. It works on
// the path graph: column c holds the values of S_c, an edge joins v at c
// to w at c+1 where an auxiliary relation pairs them (Definition 3.3),
// and a row is a maximal path of at least one edge, NULL-padded, whose
// ends the extension admits (Defs. 3.4–3.7). The stored partitions hold
// the graph as it was before the update, the object base as it is after,
// and the update's changed edges, laid over either, give the other.

// edgeChange is one edge an update adds or removes: from at column col
// to to at column col+1.
type edgeChange struct {
	col      int
	from, to gom.Value
	add      bool
}

// search is one update's view of the path graph. Successors are read off
// the objects' own references. Predecessors are resolved a column at a
// time, from the last: in a Full extension, which stores every edge, by
// a backward probe of the partition ending at that column; otherwise by
// one pass over the extent of the step's domain — the paper's exhaustive
// search. Resolving each column once bounds the search on cyclic
// schemas.
type search struct {
	ix    *Index
	dead  *gom.Object              // deleted by the update: live before it
	chs   []edgeChange             // the overlay
	preds []map[string][]gom.Value // per column, as read
}

type node struct {
	col int
	key string
}

// object returns the object v references, the deleted one included.
func (s *search) object(v gom.Value) (*gom.Object, bool) {
	r, ok := v.(gom.Ref)
	switch {
	case !ok:
		return nil, false
	case s.dead != nil && r.OID() == s.dead.ID():
		return s.dead, true
	}
	return s.ix.ob.Get(r.OID())
}

// live reports whether v leads somewhere, the deleted object included.
func (s *search) live(v gom.Value) bool {
	_, ok := s.object(v)
	_, ref := v.(gom.Ref)
	return ok || (v != nil && !ref)
}

// members returns the elements of a set object that lead somewhere.
func (s *search) members(set *gom.Object) []gom.Value {
	return slices.DeleteFunc(set.AppendElements(nil), func(e gom.Value) bool { return !s.live(e) })
}

// follow is Object.Follow, counting the deleted object as live.
func (s *search) follow(o *gom.Object, step gom.PathStep) (set gom.Value, targets []gom.Value) {
	v, _ := o.Attr(step.Attr)
	if so, ok := s.object(v); ok && step.IsSetOccurrence() {
		return v, s.members(so)
	} else if s.live(v) && !step.IsSetOccurrence() {
		return nil, []gom.Value{v}
	}
	return nil, nil
}

// overlay lays the changed edges at v, column c, over its successors
// (fwd) or predecessors as read. A changed edge exists after the update
// if a change adds it, before it if one removes it.
func (s *search) overlay(read []gom.Value, after bool, c int, v gom.Value, fwd bool) []gom.Value {
	end := func(ch edgeChange) gom.Value { // v's neighbour on ch, nil if ch is elsewhere
		if fwd && ch.col == c && gom.ValuesEqual(ch.from, v) {
			return ch.to
		} else if !fwd && ch.col+1 == c && gom.ValuesEqual(ch.to, v) {
			return ch.from
		}
		return nil
	}
	if !slices.ContainsFunc(s.chs, func(ch edgeChange) bool { return end(ch) != nil }) {
		return read
	}
	out := slices.Clone(read)
	for _, ch := range s.chs {
		if w := end(ch); w != nil {
			out = slices.DeleteFunc(out, func(u gom.Value) bool { return gom.ValuesEqual(u, w) })
		}
	}
	for _, ch := range s.chs {
		if w := end(ch); w != nil && ch.add == after && !slices.ContainsFunc(out, w.Equal) {
			out = append(out, w)
		}
	}
	return out
}

// pred returns the resolved predecessors of v at column c.
func (s *search) pred(c int, v gom.Value, after bool) []gom.Value {
	if c == 0 {
		return nil
	}
	return s.overlay(s.preds[c][gom.ValueString(v)], after, c, v, false)
}

// succ returns the successors of v at column c. A set's elements are
// listed whether or not an object references the set: the changed edges
// take them from a set the update leaves unreferenced, and a set
// unreferenced throughout is never reached.
func (s *search) succ(c int, v gom.Value, after bool) []gom.Value {
	var read []gom.Value
	if o, ok := s.object(v); ok && c < len(s.preds)-1 {
		i, setCol := s.ix.path.StepOfColumn(c)
		if setCol {
			read = s.members(o)
		} else if step := s.ix.path.Step(i + 1); o.Type().IsSubtypeOf(step.Domain) {
			if set, targets := s.follow(o, step); set != nil {
				read = []gom.Value{set}
			} else {
				read = targets
			}
		}
	}
	return s.overlay(read, after, c, v, true)
}

// resolve reads the predecessors at column c of the values not resolved
// yet.
func (s *search) resolve(c int, vals []gom.Value) error {
	known, want := s.preds[c], map[string]bool{}
	var todo []gom.Value
	for _, v := range vals {
		if k := gom.ValueString(v); known[k] == nil {
			known[k], want[k] = []gom.Value{}, true
			todo = append(todo, v)
		}
	}
	if len(todo) == 0 || c == 0 {
		return nil
	}
	add := func(v, p gom.Value) {
		if k := gom.ValueString(v); p != nil && !slices.ContainsFunc(known[k], p.Equal) {
			known[k] = append(known[k], p)
		}
	}
	for _, pp := range s.ix.parts {
		if s.ix.ext != Full || pp.Hi != c {
			continue
		}
		// Full keeps every edge, so the partition ending at c holds all
		// edges into it: one sorted batch probe for the column's values.
		rowsets, err := pp.Part.LookupBatch(false, todo)
		if err != nil {
			return err
		}
		for i, rows := range rowsets {
			for _, r := range rows {
				add(todo[i], r[len(r)-2])
			}
		}
		return nil
	}
	i, setCol := s.ix.path.StepOfColumn(c)
	step := s.ix.path.Step(i)
	for _, id := range s.ix.ob.Extent(step.Domain, true) {
		o, ok := s.ix.ob.Get(id)
		if !ok {
			continue
		}
		set, targets := s.follow(o, step)
		from := gom.Value(gom.Ref(id))
		if setCol {
			targets = []gom.Value{set}
		} else if set != nil {
			from = set
		}
		for _, t := range targets {
			if t != nil && want[gom.ValueString(t)] {
				add(t, from)
			}
		}
	}
	return nil
}

// rowDiff is the update's row difference: the logical rows that exist
// before the update and not after it (removes), and the other way round
// (adds). changes are the edges the update moved; dead is the object it
// deleted, if any, whose edges the search finds.
func (ix *Index) rowDiff(changes []edgeChange, dead *gom.Object) (removes, adds []relation.Tuple, err error) {
	m := ix.path.Arity() - 1
	s := &search{ix: ix, dead: dead, preds: make([]map[string][]gom.Value, m+1)}
	for c := range s.preds {
		s.preds[c] = map[string][]gom.Value{}
	}
	s.chs = slices.DeleteFunc(slices.Clone(changes), func(ch edgeChange) bool { return !s.live(ch.to) })
	if dead != nil {
		// A deleted object loses its references and every one to it.
		v := gom.Value(gom.Ref(dead.ID()))
		for c, t := range ix.path.ColumnTypes() {
			if !dead.Type().IsSubtypeOf(t) {
				continue
			}
			for _, w := range s.succ(c, v, false) {
				s.chs = append(s.chs, edgeChange{c, v, w, false})
			}
			if err := s.resolve(c, []gom.Value{v}); err != nil {
				return nil, nil, err
			}
			for _, p := range s.pred(c, v, false) {
				s.chs = append(s.chs, edgeChange{c - 1, p, v, false})
			}
		}
	}

	// A set's elements are edges only while an object references the set
	// (Definition 3.3): where the update takes a set's last referencer or
	// gives it its first, every element edge goes or comes too.
	for _, ch := range s.chs {
		b := ch.col + 1
		if _, set := ix.path.StepOfColumn(b); !set {
			continue
		}
		if err := s.resolve(b, []gom.Value{ch.to}); err != nil {
			return nil, nil, err
		}
		before, after := len(s.pred(b, ch.to, false)) > 0, len(s.pred(b, ch.to, true)) > 0
		if set, ok := s.object(ch.to); ok && before != after {
			for _, e := range s.members(set) {
				s.chs = append(s.chs, edgeChange{b, ch.to, e, after})
			}
		}
	}

	// Search left of every changed edge's source to the paths' starts,
	// and probe each target that leads on for a predecessor, a column at
	// a time from the last.
	deep := map[node]bool{} // resolved, and whether its predecessors are too
	need := make([][]gom.Value, m+1)
	visit := func(c int, v gom.Value, walk bool) {
		k := node{c, gom.ValueString(v)}
		if w, ok := deep[k]; ok {
			walk = walk || w
		} else {
			need[c] = append(need[c], v)
		}
		deep[k] = walk
	}
	for _, ch := range s.chs {
		visit(ch.col, ch.from, true)
		if b := ch.col + 1; len(s.succ(b, ch.to, false))+len(s.succ(b, ch.to, true)) > 0 {
			visit(b, ch.to, false)
		}
	}
	for c := m; c > 0; c-- {
		if err := s.resolve(c, need[c]); err != nil {
			return nil, nil, err
		}
		for _, v := range need[c] {
			if deep[node{c, gom.ValueString(v)}] {
				for _, p := range slices.Concat(s.pred(c, v, false), s.pred(c, v, true)) {
					visit(c-1, p, true)
				}
			}
		}
	}

	// An element edge of a set no object references is no edge.
	s.chs = slices.DeleteFunc(s.chs, func(ch edgeChange) bool {
		_, set := ix.path.StepOfColumn(ch.col)
		return set && len(s.pred(ch.col, ch.from, ch.add)) == 0
	})
	before, after := s.rows(false), s.rows(true)
	return minus(before, after), minus(after, before), nil
}

// minus returns the rows of a that b lacks.
func minus(a, b map[string]relation.Tuple) (out []relation.Tuple) {
	for k, row := range a {
		if _, ok := b[k]; !ok {
			out = append(out, row)
		}
	}
	return out
}

// rows collects, in one state, every row an update can change. A row in
// one state only runs through a changed edge, or starts at an edge's
// target that has a predecessor in the other state only, or ends at an
// edge's source that has a successor in the other state only. Rows
// through an edge (a, b) join the maximal paths ending at a to those
// starting at b.
func (s *search) rows(after bool) map[string]relation.Tuple {
	out := map[string]relation.Tuple{}
	m := len(s.preds) - 1
	// emit joins paths ending at column col-1 to paths starting at col.
	emit := func(col int, pres, sufs [][]gom.Value) {
		for _, pre := range pres {
			for _, suf := range sufs {
				if start, end := col-len(pre), col+len(suf)-1; keepRow(s.ix.ext, m, start, end) {
					row := make(relation.Tuple, m+1)
					copy(row[start:], pre)
					copy(row[col:], suf)
					out[row.Key()] = row
				}
			}
		}
	}
	none := [][]gom.Value{nil}
	for _, ch := range s.chs {
		a, b := ch.col, ch.col+1
		if slices.ContainsFunc(s.succ(a, ch.from, after), ch.to.Equal) {
			emit(b, s.paths(a, ch.from, after, true), s.paths(b, ch.to, after, false))
		}
		if len(s.pred(b, ch.to, after)) == 0 && len(s.pred(b, ch.to, !after)) > 0 {
			emit(b, none, s.paths(b, ch.to, after, false))
		}
		if len(s.succ(a, ch.from, after)) == 0 && len(s.succ(a, ch.from, !after)) > 0 {
			emit(b, s.paths(a, ch.from, after, true), none)
		}
	}
	return out
}

// paths returns every maximal path from v at column c to its start
// (left) or its end, in column order.
func (s *search) paths(c int, v gom.Value, after, left bool) [][]gom.Value {
	next, dir := s.succ(c, v, after), 1
	if left {
		next, dir = s.pred(c, v, after), -1
	}
	if len(next) == 0 {
		return [][]gom.Value{{v}}
	}
	var out [][]gom.Value
	for _, w := range next {
		for _, p := range s.paths(c+dir, w, after, left) {
			if left {
				out = append(out, append(p[:len(p):len(p)], v))
			} else {
				out = append(out, append([]gom.Value{v}, p...))
			}
		}
	}
	return out
}

// keepRow reports whether the extension keeps the maximal path spanning
// columns [start, end]: it must span an edge, and its ends must meet the
// extension's boundary conditions.
func keepRow(ext Extension, m, start, end int) bool {
	return end > start && (ext == Full || ext == LeftComplete && start == 0 ||
		ext == RightComplete && end == m || ext == Canonical && start == 0 && end == m)
}
