package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/telemetry"
)

// referenceRun is the nested loop as it stood before each predicate
// moved to the depth that binds its variable: every predicate is checked
// at the innermost depth, once per complete binding, in query order, by
// one walk each; nothing goes through an index. It is the oracle the
// engine's Values are compared with, and its object reads are the count
// the engine's pruning is measured against.
func referenceRun(t *testing.T, ob *gom.ObjectBase, q *Query) (values []string, reads uint64) {
	t.Helper()
	p, err := New(ob, nil).resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	reach := func(from gom.Value, path *gom.PathExpression) []gom.Value {
		vals, n := ob.Reach(path, 0, path.Len(), from)
		reads += n
		return vals
	}
	members := func(depth int, bindings []gom.Value) []gom.Value {
		br := p.ranges[depth]
		if br.r.Dependent == nil {
			coll, ok := ob.Get(br.setOID)
			if !ok {
				t.Fatalf("collection of range %q deleted", br.r.Var)
			}
			return refMembers(coll)
		}
		var refs []gom.Value
		for _, v := range reach(bindings[br.parentIdx], br.path) {
			if _, ok := v.(gom.Ref); ok {
				refs = append(refs, v)
			}
		}
		return refs
	}
	out := map[string]bool{}
	bindings := make([]gom.Value, len(p.ranges))
	var loop func(depth int)
	loop = func(depth int) {
		if depth == len(p.ranges) {
			for pi, rt := range p.preds {
				if !hasValue(reach(bindings[rt.at], rt.path), q.Where[pi].Literal) {
					return
				}
			}
			v := bindings[p.proj.at]
			if p.proj.path == nil {
				out[v.String()] = true
				return
			}
			for _, w := range reach(v, p.proj.path) {
				out[gom.ValueString(w)] = true
			}
			return
		}
		for _, m := range members(depth, bindings) {
			bindings[depth] = m
			loop(depth + 1)
		}
	}
	loop(0)
	for k := range out {
		values = append(values, k)
	}
	sort.Strings(values)
	return values, reads
}

// hasValue reports whether any of the reached values equals want
// (exists semantics over set-valued steps).
func hasValue(reached []gom.Value, want gom.Value) bool {
	for _, v := range reached {
		if gom.ValuesEqual(v, want) {
			return true
		}
	}
	return false
}

// nestedPaths lists, per anchorsDB type, the predicate and projection
// paths a random query may take from a variable of that type, with the
// literals each path's last step holds (plus one no object holds).
var nestedPaths = map[string][]struct {
	attrs    string
	literals []string
}{
	"T0": {
		{"Payload", []string{"A0", "A5", "A21", "A42"}},
		{"Next.Payload", []string{"Q0", "Q1", "Q2"}},
		{"Next.Next.Payload", []string{"R0", "R1", "R2", "R3"}},
		{"Next.Next.Next.Payload", []string{"P0", "P3", "P6"}},
	},
	"T1": {
		{"Payload", []string{"Q0", "Q1", "Q2"}},
		{"Next.Payload", []string{"R0", "R1", "R2", "R3"}},
		{"Next.Next.Payload", []string{"P1", "P4"}},
	},
	"T2": {
		{"Payload", []string{"R0", "R1", "R2", "R3"}},
		{"Next.Payload", []string{"P2", "P5"}},
	},
}

// nestedShapes are the range lists of the random queries: dependent
// ranges over a single-valued and a set-valued step, inner collection
// ranges (a list among them), and mixes of both. Each variable is listed
// with its type; COLL is replaced by a random collection.
var nestedShapes = [][][3]string{
	{{"x", "T0", "COLL"}, {"y", "T1", "x.Next"}},
	{{"x", "T0", "COLL"}, {"y", "T1", "x.Next"}, {"z", "T2", "y.Next"}},
	{{"x", "T0", "COLL"}, {"y", "T0", "COLL"}},
	{{"x", "T0", "COLL"}, {"y", "T1", "x.Next"}, {"w", "T0", "COLL"}},
	{{"x", "T0", "COLL"}, {"w", "T0", "COLL"}, {"z", "T1", "w.Next"}},
	{{"x", "T0", "COLL"}, {"y", "T1", "x.Next"}, {"z", "T2", "y.Next"}, {"w", "T0", "COLL"}},
}

// randomNestedQuery draws a query of two to four ranges with a predicate
// on every variable (two on some) and a random projection.
func randomNestedQuery(rng *rand.Rand) string {
	colls := []string{"All", "Some", "Twice"}
	shape := nestedShapes[rng.Intn(len(nestedShapes))]
	var ranges, preds []string
	pick := func(typ string) (string, string) {
		opts := nestedPaths[typ]
		o := opts[rng.Intn(len(opts))]
		lit := "none"
		if rng.Intn(6) > 0 {
			lit = o.literals[rng.Intn(len(o.literals))]
		}
		return o.attrs, lit
	}
	for _, r := range shape {
		src := r[2]
		if src == "COLL" {
			src = colls[rng.Intn(len(colls))]
		}
		ranges = append(ranges, r[0]+" in "+src)
		for n := 1 + rng.Intn(3)/2; n > 0; n-- {
			attrs, lit := pick(r[1])
			preds = append(preds, fmt.Sprintf("%s.%s = %q", r[0], attrs, lit))
		}
	}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	proj := shape[rng.Intn(len(shape))]
	projection := proj[0]
	if rng.Intn(4) > 0 {
		attrs, _ := pick(proj[1])
		projection += "." + attrs
	}
	return fmt.Sprintf("select %s from %s where %s",
		projection, strings.Join(ranges, ", "), strings.Join(preds, " and "))
}

// TestPredicatesAtTheirDepthMatchInnermost: seeded random queries of two
// to four ranges — dependent ranges over single- and set-valued steps,
// inner collection ranges over sets and a list, a predicate on every
// variable — return referenceRun's Values from a traversal engine and
// from an indexed engine, whose routed predicates seed the anchors.
func TestPredicatesAtTheirDepthMatchInnermost(t *testing.T) {
	db := newAnchorsDB(t, 7)
	for k, id := range db.Extents[2] {
		db.Base.MustSetAttr(id, "Payload", gom.String(fmt.Sprintf("R%d", k%4)))
	}
	naive := New(db.Base, nil)
	indexed := New(db.Base, db.manager(t, newPool()))
	rng := rand.New(rand.NewSource(42))
	const queries = 300
	nonEmpty := 0
	for n := 0; n < queries; n++ {
		src := randomNestedQuery(rng)
		q := MustParse(src)
		want, _ := referenceRun(t, db.Base, q)
		if len(want) > 0 {
			nonEmpty++
		}
		for name, e := range map[string]*Engine{"traversal": naive, "indexed": indexed} {
			res, err := e.Run(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", src, name, err)
			}
			if got := valueStrings(res.Values); strings.Join(got, "\x00") != strings.Join(want, "\x00") {
				t.Errorf("%s\n%s: %v\nreference:   %v", src, name, got, want)
			}
		}
	}
	if nonEmpty < queries/10 {
		t.Errorf("only %d of %d queries return anything: the comparison is too weak", nonEmpty, queries)
	}
	t.Logf("%d of %d queries non-empty", nonEmpty, queries)
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)-th call on: a run canceled after it has walked n blocks.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestCanceledRunStopsWithinOneBlock: a traversal over a 300-member
// collection checks ctx once per block of anchors. Canceled before it
// starts, it returns context.Canceled having read at most one block's
// objects; canceled after the first block, it reads that block — one
// object per anchor — and no further.
func TestCanceledRunStopsWithinOneBlock(t *testing.T) {
	db, err := gendb.Generate(gendb.Spec{N: 1, C: []int{300, 300}, D: []int{0}, Fan: []int{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	setT, err := db.Schema.DefineCollection("ASET", gom.SetType, db.Types[0])
	if err != nil {
		t.Fatal(err)
	}
	set := db.Base.MustNew(setT)
	for k, id := range db.Extents[0] {
		db.Base.MustSetAttr(id, "Payload", gom.String(fmt.Sprintf("A-%d", k)))
		db.Base.MustInsertIntoSet(set.ID(), gom.Ref(id))
	}
	if err := db.Base.BindVar("A", set.ID()); err != nil {
		t.Fatal(err)
	}
	e := New(db.Base, nil)
	q := MustParse(`select x.Payload from x in A where x.Payload = "A-7"`)
	const block = 256 // gom's walkBlock: anchors per read lock and per ctx check

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx, tally := telemetry.WithTally(canceled)
	if _, err := e.RunCtx(ctx, q, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: err %v, want context.Canceled", err)
	}
	if tally.Objects() > block {
		t.Errorf("pre-canceled run read %d objects, want at most one block (%d)", tally.Objects(), block)
	}

	ctx, tally = telemetry.WithTally(&cancelAfter{Context: context.Background(), n: 1})
	if _, err := e.RunCtx(ctx, q, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("run canceled after one block: err %v, want context.Canceled", err)
	}
	if tally.Objects() != block {
		t.Errorf("run canceled after one block read %d objects, want %d", tally.Objects(), block)
	}
}
