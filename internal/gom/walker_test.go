package gom

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// walkerBase is a three-step path with one of each kind of step —
// single-valued, through a set, through a list that repeats an element —
// over a base in which two Groups share Items, so that a walk from one
// object meets repeats only through the list and a walk from several
// meets them at every step.
func walkerBase(t *testing.T) (ob *ObjectBase, path *PathExpression, roots []Value) {
	t.Helper()
	s, _, err := ParseSchema(`
		type Root is [Name: STRING, Group: Group];
		type Group is [Items: ItemSET];
		type ItemSET is {Item};
		type Item is [Tags: TagLIST];
		type TagLIST is <Tag>;
		type Tag is [Name: STRING];
		type RootSET is {Root};
		type RootLIST is <Root>;
		type NameLIST is <STRING>;
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob = NewObjectBase(s)
	mk := func(typ string) OID { return ob.MustNew(s.MustLookup(typ)).ID() }
	var tags []OID
	for i := 0; i < 4; i++ {
		tag := mk("Tag")
		ob.MustSetAttr(tag, "Name", String(fmt.Sprintf("tag%d", i%3))) // tag0 twice
		tags = append(tags, tag)
	}
	var items []OID
	for i := 0; i < 3; i++ {
		item, list := mk("Item"), mk("TagLIST")
		for _, tag := range []OID{tags[i], tags[i+1], tags[i]} { // a repeat within the list
			if err := ob.AppendToList(list, Ref(tag)); err != nil {
				t.Fatal(err)
			}
		}
		ob.MustSetAttr(item, "Tags", Ref(list))
		items = append(items, item)
	}
	for i := 0; i < 3; i++ {
		root, group, set := mk("Root"), mk("Group"), mk("ItemSET")
		ob.MustInsertIntoSet(set, Ref(items[i]))
		ob.MustInsertIntoSet(set, Ref(items[(i+1)%3])) // shared with the next group
		ob.MustSetAttr(group, "Items", Ref(set))
		ob.MustSetAttr(root, "Group", Ref(group))
		roots = append(roots, Ref(root))
	}
	if err := ob.Delete(items[2]); err != nil { // a dangling set element
		t.Fatal(err)
	}
	return ob, MustResolvePath(s.MustLookup("Root"), "Group", "Items", "Tags", "Name"), roots
}

func sortedStrings(vs []Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = ValueString(v)
	}
	sort.Strings(out)
	return out
}

// TestWalkerMatchesStepwiseClosure holds Reach — through one Walker
// reused for every call, and through ObjectBase.Reach — to the closure
// computed one Follow at a time with an explicit set per frontier: the
// same values, each once, and the same number of fetches, from one start
// object (the steps that skip de-duplication) and from several.
func TestWalkerMatchesStepwiseClosure(t *testing.T) {
	ob, path, roots := walkerBase(t)
	w := ob.NewWalker()
	starts := [][]Value{roots[:1], roots[1:2], roots[2:], roots, {roots[0], roots[0]}, {String("not a reference")}, nil}
	for _, start := range starts {
		for i := 0; i <= path.Len(); i++ {
			for j := i; j <= path.Len(); j++ {
				frontier, fetches := start, uint64(0)
				for s := i + 1; s <= j; s++ {
					seen := map[string]bool{}
					var next []Value
					for _, v := range frontier {
						ref, ok := v.(Ref)
						if !ok {
							continue
						}
						o, ok := ob.Get(ref.OID())
						if !ok {
							continue
						}
						fetches++
						_, targets := o.Follow(path.Step(s), nil)
						for _, tgt := range targets {
							if k := ValueString(tgt); !seen[k] {
								seen[k] = true
								next = append(next, tgt)
							}
						}
					}
					frontier = next
				}
				want := sortedStrings(frontier)
				for name, reach := range map[string]func(*PathExpression, int, int, ...Value) ([]Value, uint64){
					"Walker": w.Reach, "ObjectBase": ob.Reach,
				} {
					got, n := reach(path, i, j, start...)
					if fmt.Sprint(sortedStrings(got)) != fmt.Sprint(want) || n != fetches {
						t.Errorf("%s.Reach(%d,%d) from %v = %v in %d fetches, want %v in %d",
							name, i, j, start, sortedStrings(got), n, want, fetches)
					}
				}
			}
		}
	}
}

// TestKeepReachingMatchesReach: over more than a block of anchors —
// Roots, a dangling and a non-reference value among them — KeepReaching
// keeps, in order, exactly the anchors whose Reach over the span hits
// one of the targets, and counts the fetches of all those walks; a
// filter in place keeps the same anchors. KeepMembers, over a set of
// more than a block of Roots with a dangling member, a list of Roots
// that repeats them and holds a NULL, and a list of strings, keeps the
// members KeepReaching keeps over a copy of them, in the same fetches.
func TestKeepReachingMatchesReach(t *testing.T) {
	ob, path, roots := walkerBase(t)
	anchors := []Value{String("not a reference"), Ref(OID(1 << 20))}
	for len(anchors) < walkBlock+7 {
		anchors = append(anchors, roots[len(anchors)%len(roots)])
	}
	s := ob.Schema()
	set, list, names := ob.MustNew(s.MustLookup("RootSET")).ID(), ob.MustNew(s.MustLookup("RootLIST")).ID(), ob.MustNew(s.MustLookup("NameLIST")).ID()
	root0, _ := ob.Get(roots[0].(Ref).OID())
	for k := 0; k < walkBlock+7; k++ {
		root := ob.MustNew(s.MustLookup("Root")).ID()
		ob.MustSetAttr(root, "Group", Ref(root0.AttrOID("Group")))
		ob.MustInsertIntoSet(set, Ref(root))
	}
	gone := ob.MustNew(s.MustLookup("Root")).ID()
	for _, v := range roots {
		ob.MustInsertIntoSet(set, v)
	}
	ob.MustInsertIntoSet(set, Ref(gone))
	if err := ob.Delete(gone); err != nil { // a dangling member
		t.Fatal(err)
	}
	for _, v := range []Value{roots[0], roots[1], nil, roots[0], roots[2], roots[1]} {
		if err := ob.AppendToList(list, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []Value{String("tag0"), String("x"), String("tag0")} {
		if err := ob.AppendToList(names, v); err != nil {
			t.Fatal(err)
		}
	}
	var colls []*Object
	for _, id := range []OID{set, list, names} {
		coll, _ := ob.Get(id)
		colls = append(colls, coll)
	}
	targets := [][]Value{{String("tag0")}, {String("tag2")}, {String("tag1"), String("tag2")}, {String("none")}, nil}
	w := ob.NewWalker()
	hits := 0
	for _, coll := range colls {
		members := coll.AppendElements(nil)
		for i := 0; i <= path.Len(); i++ {
			for j := i; j <= path.Len(); j++ {
				for _, want := range targets {
					kept, fetches, _ := w.KeepReaching(context.Background(), nil, members, path, i, j, want...)
					got, n, err := w.KeepMembers(context.Background(), nil, coll, path, i, j, want...)
					if err != nil || fmt.Sprint(sortedStrings(got)) != fmt.Sprint(sortedStrings(kept)) || n != fetches {
						t.Errorf("%s: KeepMembers(%d,%d, %v) kept %d members in %d fetches (err %v), want %d in %d",
							coll.Type().Name(), i, j, want, len(got), n, err, len(kept), fetches)
					}
					hits += len(kept)
				}
			}
		}
	}
	for i := 0; i <= path.Len(); i++ {
		for j := i; j <= path.Len(); j++ {
			for _, want := range targets {
				var kept []Value
				var fetches uint64
				for _, a := range anchors {
					reached, n := ob.Reach(path, i, j, a)
					fetches += n
					for _, v := range reached {
						if slices.ContainsFunc(want, func(t Value) bool { return ValuesEqual(v, t) }) {
							kept = append(kept, a)
							break
						}
					}
				}
				got, n, err := w.KeepReaching(context.Background(), nil, anchors, path, i, j, want...)
				if err != nil || fmt.Sprint(got) != fmt.Sprint(kept) || n != fetches {
					t.Errorf("KeepReaching(%d,%d, %v) kept %d anchors in %d fetches (err %v), want %d in %d",
						i, j, want, len(got), n, err, len(kept), fetches)
				}
				inPlace := slices.Clone(anchors)
				if got, _, _ := w.KeepReaching(context.Background(), inPlace[:0], inPlace, path, i, j, want...); fmt.Sprint(got) != fmt.Sprint(kept) {
					t.Errorf("KeepReaching(%d,%d, %v) in place kept %v, want %v", i, j, want, got, kept)
				}
				hits += len(kept)
			}
		}
	}
	if hits == 0 {
		t.Error("no anchor reaches any target: the comparison is vacuous")
	}
}

// TestWalkerAllocatesPerChunkNotPerAnchor: once its buffers have grown,
// a walk from one object over single-valued and set-valued steps
// allocates nothing.
func TestWalkerAllocatesPerChunkNotPerAnchor(t *testing.T) {
	ob, path, roots := walkerBase(t)
	w := ob.NewWalker()
	start := roots[:1]
	if allocs := testing.AllocsPerRun(100, func() {
		if got, _ := w.Reach(path, 0, 2, start...); len(got) != 2 {
			t.Fatalf("reached %v", got)
		}
	}); allocs != 0 {
		t.Errorf("%.1f allocations per walk from one anchor, want 0", allocs)
	}
}

// TestCollectionAccessors: AppendElements yields what Elements yields,
// order aside, and Contains answers for sets and for lists.
func TestCollectionAccessors(t *testing.T) {
	ob, _, roots := walkerBase(t)
	root, _ := ob.Get(roots[0].(Ref).OID())
	group, _ := ob.Get(root.AttrOID("Group"))
	set, _ := ob.Get(group.AttrOID("Items"))
	var list *Object
	for _, e := range set.Elements() {
		if item, ok := ob.Get(e.(Ref).OID()); ok {
			list, _ = ob.Get(item.AttrOID("Tags"))
		}
	}
	if list == nil || list.Len() != 3 {
		t.Fatal("no tag list found")
	}
	for _, coll := range []*Object{set, list} {
		prefix := []Value{String("kept")}
		got := coll.AppendElements(prefix)
		if len(got) != 1+coll.Len() || got[0] != prefix[0] ||
			fmt.Sprint(sortedStrings(got[1:])) != fmt.Sprint(sortedStrings(coll.Elements())) {
			t.Errorf("%s: AppendElements = %v, Elements = %v", coll.Type().Name(), got, coll.Elements())
		}
		for _, e := range coll.Elements() {
			if !coll.Contains(e) {
				t.Errorf("%s does not contain its element %v", coll.Type().Name(), e)
			}
		}
		if coll.Contains(roots[0]) || coll.Contains(nil) {
			t.Errorf("%s contains a value it does not hold", coll.Type().Name())
		}
	}
	if got := list.AppendElements(nil); fmt.Sprint(got) != fmt.Sprint(list.Elements()) {
		t.Errorf("list order: AppendElements = %v, Elements = %v", got, list.Elements())
	}
}

// TestWalksBesideAWriter: readers walk Root.Items.Name — through a set —
// while one writer inserts, removes, renames and deletes the Items they
// walk, growing each set past the scan size and shrinking it back. Every
// walk must finish: a walk holds the base's read lock throughout, and
// anything inside it that took the lock again would deadlock as soon as
// the writer queued. Item names are unique and never NULL, so each walk
// reaches one name per live Item it fetched besides its Root. One
// reader walks through KeepReaching instead: more than a block of
// anchors, the Roots over and over, filtered by the name of an Item the
// writer never touches, so exactly one Root's occurrences are kept.
func TestWalksBesideAWriter(t *testing.T) {
	s, _, err := ParseSchema(`
		type Root is [Items: ItemSET];
		type ItemSET is {Item};
		type Item is [Name: STRING];
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObjectBase(s)
	path := MustResolvePath(s.MustLookup("Root"), "Items", "Name")
	named := 0
	newItem := func() Value {
		item := ob.MustNew(s.MustLookup("Item")).ID()
		named++
		ob.MustSetAttr(item, "Name", String(fmt.Sprintf("n%d", named)))
		return Ref(item)
	}
	const nRoots = 4
	var roots [nRoots]Value
	var sets [nRoots]OID
	var members [nRoots][]Value // the writer's own record of each set
	for r := range roots {
		root, set := ob.MustNew(s.MustLookup("Root")).ID(), ob.MustNew(s.MustLookup("ItemSET")).ID()
		ob.MustSetAttr(root, "Items", Ref(set))
		roots[r], sets[r] = Ref(root), set
		for i := 0; i < setScanMax/2; i++ {
			members[r] = append(members[r], newItem())
			ob.MustInsertIntoSet(set, members[r][i])
		}
		pinned := ob.MustNew(s.MustLookup("Item")).ID()
		ob.MustSetAttr(pinned, "Name", String(fmt.Sprintf("pin%d", r)))
		ob.MustInsertIntoSet(set, Ref(pinned))
	}
	anchors := make([]Value, walkBlock+nRoots+1)
	for k := range anchors {
		anchors[k] = roots[k%nRoots]
	}

	stop := make(chan struct{})
	var walks [4]int
	done := make(chan struct{}, len(walks)+1)
	// The writer starts once every reader has finished a walk: on a single
	// CPU it would otherwise run all its operations, and stop the readers,
	// before any of them is scheduled.
	var started sync.WaitGroup
	started.Add(len(walks))
	for g := range walks {
		go func() {
			first := sync.OnceFunc(started.Done)
			defer func() { first(); done <- struct{}{} }()
			w := ob.NewWalker()
			var kept []Value
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				r := k % nRoots
				if g == len(walks)-1 {
					var fetches uint64
					var err error
					kept, fetches, err = w.KeepReaching(context.Background(), kept[:0], anchors, path, 0, 2, String(fmt.Sprintf("pin%d", r)))
					if err != nil || len(kept) != (len(anchors)-r+nRoots-1)/nRoots || fetches < 2*uint64(len(anchors)) {
						t.Errorf("kept %d of %d anchors in %d fetches (err %v), want every occurrence of Root %d and at least a Root and an Item per anchor",
							len(kept), len(anchors), fetches, err, r)
						return
					}
					for _, a := range kept {
						if a != roots[r] {
							t.Errorf("kept %v for pin%d, want only %v", a, r, roots[r])
							return
						}
					}
				} else {
					names, fetches := w.Reach(path, 0, 2, roots[r])
					if fetches != 1+uint64(len(names)) {
						t.Errorf("walk reached %d names in %d fetches, want one Root and one Item per name", len(names), fetches)
						return
					}
				}
				walks[g]++
				first()
			}
		}()
	}
	go func() {
		defer func() { done <- struct{}{} }()
		defer close(stop)
		started.Wait()
		rng := rand.New(rand.NewSource(1))
		for op := 0; op < 4000; op++ {
			r := rng.Intn(nRoots)
			m := members[r]
			grow := (op/500)%2 == 0 // alternate phases: sets grow past setScanMax, then shrink
			switch k := rng.Intn(10); {
			case len(m) == 0 || (grow && k < 5) || (!grow && k < 2):
				v := newItem()
				ob.MustInsertIntoSet(sets[r], v)
				members[r] = append(m, v)
			case k < 7:
				i := rng.Intn(len(m))
				if err := ob.RemoveFromSet(sets[r], m[i]); err != nil {
					t.Error(err)
					return
				}
				members[r] = append(m[:i], m[i+1:]...)
			case k < 9:
				named++
				ob.MustSetAttr(m[rng.Intn(len(m))].(Ref).OID(), "Name", String(fmt.Sprintf("n%d", named)))
			default: // leaves a dangling element behind, which walks skip
				i := rng.Intn(len(m))
				if err := ob.Delete(m[i].(Ref).OID()); err != nil {
					t.Error(err)
					return
				}
				members[r] = append(m[:i], m[i+1:]...)
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	for range len(walks) + 1 {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("walks and writer still running after 30 s: a lock taken inside a walk deadlocks behind the queued writer")
		}
	}
	for g, n := range walks {
		if n == 0 {
			t.Errorf("reader %d finished no walk", g)
		}
	}
}

// TestKeepMembersBesideAWriter: one KeepMembers call walks a set of
// eight blocks of Items, filtering it by Name, while one writer removes
// members — each removal moves the set's last element into the removed
// one's place — and inserts new ones. Each round starts from a fresh set
// whose first block is the writer's to churn and whose last seven are
// stable Items, half of them named "keep": the writer's removals move
// stable Items from the end into the front block, where a walk from the
// start would already have been. The call must keep every stable "keep"
// Item, and nothing not named "keep".
func TestKeepMembersBesideAWriter(t *testing.T) {
	s, _, err := ParseSchema(`
		type ItemSET is {Item};
		type Item is [Name: STRING];
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObjectBase(s)
	path := MustResolvePath(s.MustLookup("Item"), "Name")
	newItem := func(name string) Value {
		item := ob.MustNew(s.MustLookup("Item")).ID()
		ob.MustSetAttr(item, "Name", String(name))
		return Ref(item)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		set := ob.MustNew(s.MustLookup("ItemSET")).ID()
		var churn, keep []Value
		for k := 0; k < walkBlock; k++ {
			churn = append(churn, newItem([]string{"keep", "drop"}[k%2]))
			ob.MustInsertIntoSet(set, churn[k])
		}
		for k := 0; k < 7*walkBlock; k++ {
			v := newItem([]string{"keep", "drop"}[k%2])
			if k%2 == 0 {
				keep = append(keep, v)
			}
			ob.MustInsertIntoSet(set, v)
		}
		coll, _ := ob.Get(set)

		var started atomic.Bool
		done := make(chan struct{})
		var wrote sync.WaitGroup
		wrote.Add(1)
		go func() {
			defer wrote.Done()
			for !started.Load() { // spin, so that the writer is running when the walk starts
				runtime.Gosched()
			}
			for op := 0; ; op++ {
				select {
				case <-done:
					return
				default:
				}
				if len(churn) == 0 || op%3 == 2 {
					v := newItem([]string{"keep", "drop"}[op%2])
					ob.MustInsertIntoSet(set, v)
					churn = append(churn, v)
					continue
				}
				i := rng.Intn(len(churn))
				if err := ob.RemoveFromSet(set, churn[i]); err != nil {
					t.Error(err)
					return
				}
				churn = append(churn[:i], churn[i+1:]...)
			}
		}()
		started.Store(true)
		kept, _, err := ob.NewWalker().KeepMembers(context.Background(), nil, coll, path, 0, 1, String("keep"))
		close(done)
		wrote.Wait()
		if err != nil {
			t.Fatal(err)
		}
		got := map[Value]bool{}
		for _, v := range kept {
			got[v] = true
			if name, _ := ob.Reach(path, 0, 1, v); len(name) != 1 || name[0] != String("keep") {
				t.Fatalf("round %d: kept %v, named %v", round, v, name)
			}
		}
		for _, v := range keep {
			if !got[v] {
				t.Fatalf("round %d: stable member %v named keep was not kept (%d of %d kept)",
					round, v, len(kept), coll.Len())
			}
		}
	}
}

// TestWalkReadsASubtypesSlot: a step resolved on Named reads Name from a
// Both, whose supertypes put an inherited Size before Name, at Both's
// own slot and not at the one resolved for Named — through Reach, the
// filters and Follow alike.
func TestWalkReadsASubtypesSlot(t *testing.T) {
	s, _, err := ParseSchema(`
		type Named is [Name: STRING];
		type Sized is [Size: INTEGER];
		type Both is supertypes (Sized, Named) [ ];
		type Holder is [Thing: Named];
	`)
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObjectBase(s)
	var holders []Value
	for _, typ := range []string{"Named", "Both"} {
		thing := ob.MustNew(s.MustLookup(typ)).ID()
		ob.MustSetAttr(thing, "Name", String(typ))
		if typ == "Both" {
			ob.MustSetAttr(thing, "Size", Integer(7))
		}
		holder := ob.MustNew(s.MustLookup("Holder")).ID()
		ob.MustSetAttr(holder, "Thing", Ref(thing))
		holders = append(holders, Ref(holder))
	}
	path := MustResolvePath(s.MustLookup("Holder"), "Thing", "Name")
	w := ob.NewWalker()
	for k, want := range []string{"Named", "Both"} {
		if got, _ := w.Reach(path, 0, 2, holders[k]); len(got) != 1 || got[0] != String(want) {
			t.Errorf("Reach from the %s holder = %v, want [%q]", want, got, want)
		}
		kept, _, err := w.KeepReaching(context.Background(), nil, holders[k:k+1], path, 0, 2, String(want))
		if err != nil || len(kept) != 1 {
			t.Errorf("KeepReaching(%q) kept %v (err %v), want the %s holder", want, kept, err, want)
		}
		thing, _ := w.Reach(path, 0, 1, holders[k])
		o, _ := ob.Get(thing[0].(Ref).OID())
		if _, got := o.Follow(path.Step(2), nil); len(got) != 1 || got[0] != String(want) {
			t.Errorf("Follow on the %s = %v, want [%q]", want, got, want)
		}
	}
}
