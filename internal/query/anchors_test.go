package query

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"asr/internal/asr"
	"asr/internal/fault"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// The index result is the candidate set: these tests hold an engine
// that seeds its anchors from backward index queries to one that has no
// manager at all (pure traversal of every member), on generated bases.

// anchorsDB is a gendb chain T0→T1→T2→T3 with unique payloads on T0,
// repeating ones on T1 ("Q0".."Q2") and T3 ("P0".."P6"), and these
// collections of T0 objects (deleted is a member of all three):
//
//	All    every T0 object — among them the ones with no Next, which no
//	       index row starts at, and one object deleted after insertion
//	Some   every third T0 object: the index returns non-members
//	Twice  a list: Some's members, dup appended a second time
type anchorsDB struct {
	*gendb.Database
	full, short *gom.PathExpression // T0.Next.Next.Next.Payload, T0.Next.Payload
	dup         gom.Value           // a member of Some that reaches a T3 payload
	deleted     gom.OID             // the T0 object manager deletes
}

func newAnchorsDB(t *testing.T, seed int64) *anchorsDB {
	t.Helper()
	db, err := gendb.Generate(gendb.Spec{
		N:    3,
		C:    []int{60, 50, 50, 40},
		D:    []int{48, 40, 45},
		Fan:  []int{1, 2, 1},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, id := range db.Extents[0] {
		db.Base.MustSetAttr(id, "Payload", gom.String(fmt.Sprintf("A%d", k)))
	}
	for k, id := range db.Extents[1] {
		db.Base.MustSetAttr(id, "Payload", gom.String(fmt.Sprintf("Q%d", k%3)))
	}
	for k, id := range db.Extents[3] {
		db.Base.MustSetAttr(id, "Payload", gom.String(fmt.Sprintf("P%d", k%7)))
	}
	setT, err := db.Schema.DefineCollection("T0SET", gom.SetType, db.Types[0])
	if err != nil {
		t.Fatal(err)
	}
	listT, err := db.Schema.DefineCollection("T0LIST", gom.ListType, db.Types[0])
	if err != nil {
		t.Fatal(err)
	}
	adb := &anchorsDB{
		Database: db,
		full:     gom.MustResolvePath(db.Types[0], "Next", "Next", "Next", "Payload"),
		short:    gom.MustResolvePath(db.Types[0], "Next", "Payload"),
		deleted:  db.Extents[0][3],
	}
	all, some, twice := db.Base.MustNew(setT), db.Base.MustNew(setT), db.Base.MustNew(listT)
	for k, id := range db.Extents[0] {
		db.Base.MustInsertIntoSet(all.ID(), gom.Ref(id))
		if k%3 == 0 {
			db.Base.MustInsertIntoSet(some.ID(), gom.Ref(id))
			if err := db.Base.AppendToList(twice.ID(), gom.Ref(id)); err != nil {
				t.Fatal(err)
			}
			if reached, _ := db.Base.Reach(adb.full, 0, 4, gom.Ref(id)); adb.dup == nil && id != adb.deleted && len(reached) > 0 {
				adb.dup = gom.Ref(id)
			}
		}
	}
	if adb.dup == nil {
		t.Fatal("no member of Some reaches a payload")
	}
	if err := db.Base.AppendToList(twice.ID(), adb.dup); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*gom.Object{"All": all, "Some": some, "Twice": twice} {
		if err := db.Base.BindVar(name, o.ID()); err != nil {
			t.Fatal(err)
		}
	}
	return adb
}

// manager indexes both predicate paths over pool and then deletes a T0
// object that All and Some still refer to.
func (db *anchorsDB) manager(t *testing.T, pool *storage.BufferPool) *asr.Manager {
	t.Helper()
	mgr := asr.NewManager(db.Base, pool)
	for _, p := range []*gom.PathExpression{db.full, db.short} {
		if _, err := mgr.CreateIndex(p, asr.Full, asr.BinaryDecomposition(p.Arity()-1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Base.Delete(db.deleted); err != nil {
		t.Fatal(err)
	}
	return mgr
}

var remainRE = regexp.MustCompile(`\((\d+)/(\d+) anchors remain\)`)

// remaining extracts the N/M pairs of a plan's routed predicates.
func remaining(plan string) [][2]int {
	var out [][2]int
	for _, m := range remainRE.FindAllStringSubmatch(plan, -1) {
		n, _ := strconv.Atoi(m[1])
		of, _ := strconv.Atoi(m[2])
		out = append(out, [2]int{n, of})
	}
	return out
}

func sameValues(a, b []gom.Value) bool {
	return strings.Join(valueStrings(a), "\x00") == strings.Join(valueStrings(b), "\x00")
}

// TestIndexSeededAnchorsMatchTraversal: for every collection shape, one
// and two routed predicates, hits, misses and an empty index answer, at
// one and four workers, the indexed engine returns the traversal
// engine's Values and reports N/M anchors with N the members that
// satisfy the predicates so far and M the collection's size.
func TestIndexSeededAnchorsMatchTraversal(t *testing.T) {
	nonEmpty := 0
	defer func() {
		if nonEmpty < 20 {
			t.Errorf("only %d of the compared answers were non-empty — test premise broken", nonEmpty)
		}
	}()
	for seed := int64(1); seed <= 6; seed++ {
		db := newAnchorsDB(t, seed)
		indexed := New(db.Base, db.manager(t, newPool()))
		naive := New(db.Base, nil)
		for _, coll := range []string{"All", "Some"} {
			collObj, _ := db.Base.Get(mustVar(t, db.Base, coll))
			for _, preds := range [][]string{
				{`x.Next.Next.Next.Payload = "P3"`},
				{`x.Next.Next.Next.Payload = "P0"`, `x.Next.Payload = "Q1"`},
				{`x.Next.Payload = "Q2"`, `x.Next.Next.Next.Payload = "P5"`},
				{`x.Next.Next.Next.Payload = "no such payload"`},
				{`x.Next.Payload = "Q0"`, `x.Next.Next.Next.Payload = "no such payload"`},
			} {
				src := fmt.Sprintf("select x.Payload from x in %s where %s", coll, strings.Join(preds, " and "))
				q := MustParse(src)
				want, err := naive.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Values) > 0 {
					nonEmpty++
				}
				// The members satisfying the first k predicates, by traversal.
				var satisfying [][2]int
				for k := 1; k <= len(preds); k++ {
					res, err := naive.Run(MustParse(fmt.Sprintf("select x from x in %s where %s",
						coll, strings.Join(preds[:k], " and "))))
					if err != nil {
						t.Fatal(err)
					}
					satisfying = append(satisfying, [2]int{len(res.Values), collObj.Len()})
				}
				got, err := indexed.Run(q)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, src, err)
				}
				if !sameValues(got.Values, want.Values) {
					t.Errorf("seed %d: %s\nindexed   %v\ntraversal %v",
						seed, src, valueStrings(got.Values), valueStrings(want.Values))
				}
				if fmt.Sprint(remaining(got.Plan)) != fmt.Sprint(satisfying) {
					t.Errorf("seed %d: %s\nplan %q reports %v, members satisfying are %v",
						seed, src, got.Plan, remaining(got.Plan), satisfying)
				}
			}
		}
	}
}

func mustVar(t *testing.T, ob *gom.ObjectBase, name string) gom.OID {
	t.Helper()
	id, ok := ob.Var(name)
	if !ok {
		t.Fatalf("no collection %q", name)
	}
	return id
}

// TestListCollectionCountsOccurrences: a list-typed outer collection
// holding a member twice, members no index row starts at and a deleted
// member keeps the semantics it always had — the plan counts occurrences
// (the duplicate survives the index filter twice, M is the list's
// length) and the Values are the traversal engine's. Object.Contains
// used to answer false for every list, which would have dropped every
// anchor of this query had lists gone through the membership probe.
func TestListCollectionCountsOccurrences(t *testing.T) {
	db := newAnchorsDB(t, 2)
	indexed := New(db.Base, db.manager(t, newPool()))
	naive := New(db.Base, nil)
	list, _ := db.Base.Get(mustVar(t, db.Base, "Twice"))
	if outsider := gom.Ref(db.Extents[0][1]); !list.Contains(db.dup) || list.Contains(outsider) {
		t.Fatalf("Contains on a list: member %v, non-member %v", list.Contains(db.dup), list.Contains(outsider))
	}
	// The literal the duplicated member reaches, so that it is among the
	// survivors.
	reached, _ := db.Base.Reach(db.full, 0, db.full.Len(), db.dup)
	src := fmt.Sprintf("select x.Payload from x in Twice where x.Next.Next.Next.Payload = %s", reached[0])
	q := MustParse(src)
	want, err := naive.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := indexed.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameValues(got.Values, want.Values) || len(got.Values) == 0 {
		t.Errorf("%s\nindexed   %v\ntraversal %v", src, valueStrings(got.Values), valueStrings(want.Values))
	}
	// Survivors by occurrence: walk the list as the nested loop would.
	survivors := 0
	for _, e := range list.Elements() {
		vals, _ := db.Base.Reach(db.full, 0, db.full.Len(), e)
		if hasValue(vals, reached[0]) {
			survivors++
		}
	}
	wantPlan := fmt.Sprintf("predicate x.Next.Next.Next.Payload = %s via ASR on T0.Next.Next.Next.Payload (%d/%d anchors remain)",
		reached[0], survivors, list.Len())
	if got.Plan != wantPlan || survivors < 2 {
		t.Errorf("plan %q\nwant %q (the duplicate counted twice)", got.Plan, wantPlan)
	}
}

// TestIndexQuarantinedMidQuery: the plan routes a predicate through an
// index that is quarantined before its backward query runs — here from
// the manager's query hook, by an update whose maintenance hits a dead
// device. The manager answers by exhaustive search and the result is
// the traversal engine's, on the updated base.
func TestIndexQuarantinedMidQuery(t *testing.T) {
	db := newAnchorsDB(t, 4)
	fi := storage.NewFaultInjector(storage.NewDisk(256), fault.New(4))
	mgr := db.manager(t, storage.NewBufferPool(fi, 8, storage.LRU))
	indexed, naive := New(db.Base, mgr), New(db.Base, nil)

	var src, dst gom.OID
	for _, id := range db.Extents[0] {
		if o, ok := db.Base.Get(id); ok {
			if v, _ := o.Attr("Next"); v != nil && v.(gom.Ref).OID() != db.Extents[1][0] {
				src, dst = id, db.Extents[1][0]
				break
			}
		}
	}
	fired := false
	mgr.SetHook(func(asr.QueryEvent) {
		if fired {
			return
		}
		fired = true
		fi.Schedule(storage.Fault{Op: storage.OpWrite, Permanent: true})
		db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
	})
	q := MustParse(`select x.Payload from x in All where x.Next.Next.Next.Payload = "P3"`)
	got, err := indexed.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !fired || mgr.Healthy() == nil {
		t.Fatalf("hook fired=%v, manager health %v: no index was quarantined mid-query", fired, mgr.Healthy())
	}
	if !strings.Contains(got.Plan, "via ASR") {
		t.Fatalf("plan %q: the predicate was not routed before the quarantine", got.Plan)
	}
	want, err := naive.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameValues(got.Values, want.Values) {
		t.Errorf("indexed   %v\ntraversal %v", valueStrings(got.Values), valueStrings(want.Values))
	}
}

// TestInnerCollectionResolvedOncePerRun: an inner range over a
// collection used to copy and string-sort that collection once per
// binding of the variables around it. Over 300 × 300 members the run
// allocated 11.9 MB; resolving B once (and walking through one Walker)
// must stay under a tenth of that, with the same Values.
//
// Each predicate is checked where its variable is bound, so x's prunes
// A to one binding before B is walked at all: 300 walks of x and 300 of
// y plus the projection, 601 object reads, where checking both at the
// innermost depth read 90 301 (referenceRun's count).
func TestInnerCollectionResolvedOncePerRun(t *testing.T) {
	db, err := gendb.Generate(gendb.Spec{N: 1, C: []int{300, 300}, D: []int{0}, Fan: []int{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for lvl, name := range []string{"A", "B"} {
		setT, err := db.Schema.DefineCollection(name+"SET", gom.SetType, db.Types[lvl])
		if err != nil {
			t.Fatal(err)
		}
		set := db.Base.MustNew(setT)
		for k, id := range db.Extents[lvl] {
			db.Base.MustSetAttr(id, "Payload", gom.String(fmt.Sprintf("%s-%d", name, k)))
			db.Base.MustInsertIntoSet(set.ID(), gom.Ref(id))
		}
		if err := db.Base.BindVar(name, set.ID()); err != nil {
			t.Fatal(err)
		}
	}
	e := New(db.Base, nil)
	q := MustParse(`select x.Payload from x in A, y in B where y.Payload = "B-7" and x.Payload = "A-299"`)
	var res *Result
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if res, err = e.Run(q); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := valueStrings(res.Values); len(got) != 1 || got[0] != `"A-299"` {
		t.Fatalf("Values = %v", got)
	}
	const parentBytes = 11.9e6
	if alloc := float64(after.TotalAlloc - before.TotalAlloc); alloc > parentBytes/10 {
		t.Errorf("one run allocated %.2f MB, want under a tenth of the %.1f MB it took with B re-materialized per binding",
			alloc/1e6, parentBytes/1e6)
	} else {
		t.Logf("one run allocated %.3f MB", alloc/1e6)
	}
	a, err := e.ExplainAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	_, innermost := referenceRun(t, db.Base, q)
	if a.ActualObjectReads > 700 {
		t.Errorf("one run read %d objects, want about 600 (innermost checks read %d)", a.ActualObjectReads, innermost)
	} else {
		t.Logf("one run read %d objects; innermost checks read %d", a.ActualObjectReads, innermost)
	}
}
