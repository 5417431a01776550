package main

import (
	"fmt"
	"math/rand"

	"asr/internal/gom"
)

// Every input the system under test receives is drawn here from the run
// seed alone: the distinct query set, the order queries are sent in, and
// the update stream. Nothing the system answers feeds back into what it
// is sent next. Open-loop arrivals are evenly spaced at the workload's
// rate, so the schedule needs no random draw.

// Stream salts keep the draws of different consumers independent.
const (
	saltQueries = 1 + iota
	saltReadOrder
	saltWrites
	saltVerify
	saltLayers
)

func newRand(seed int64, salt int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(salt)))
}

// readKind says which strategy a query exercises.
type readKind uint8

const (
	readIndexed readKind = iota // backward through the ASR
	readScan                    // no usable ASR: nested-loop traversal
	readForward                 // projection through the ASR
)

type readOp struct {
	kind readKind
	k    int // literal ordinal
	sql  string
}

// querySet is a workload's distinct queries: the pools a read draws its
// kind's query from.
type querySet struct {
	ops    []readOp
	byKind [3][]int // indexes into ops
}

// buildQuerySet draws the workload's distinct queries. Indexed literals
// are half from the T3 objects some T0 object reaches (non-empty answers)
// and half uniform over all of T3, so at least half the answers are
// non-empty; when the pool covers all of T3 every literal is used once.
func buildQuerySet(sp spec, d *db, seed int64) *querySet {
	rng := newRand(seed, saltQueries)
	qs := &querySet{}
	add := func(kind readKind, k int, sql string) {
		qs.byKind[kind] = append(qs.byKind[kind], len(qs.ops))
		qs.ops = append(qs.ops, readOp{kind: kind, k: k, sql: sql})
	}
	n3, n0 := len(d.levels[3]), len(d.levels[0])
	if sp.indexedPool >= n3 {
		for k := 0; k < n3; k++ {
			add(readIndexed, k, indexedSQL(k))
		}
	} else {
		reached := reachedT3(d)
		for i := 0; i < sp.indexedPool; i++ {
			k := rng.Intn(n3)
			if i%2 == 0 && len(reached) > 0 {
				k = reached[rng.Intn(len(reached))]
			}
			add(readIndexed, k, indexedSQL(k))
		}
	}
	for i := 0; i < sp.scanPool; i++ {
		k := rng.Intn(n0)
		add(readScan, k, scanSQL(k))
	}
	for i := 0; i < sp.forwardPool; i++ {
		k := rng.Intn(n0)
		add(readForward, k, forwardSQL(k))
	}
	return qs
}

// reachedT3 lists, in ordinal order, the T3 ordinals reachable from some
// T0 object by walking the object base (no index involved).
func reachedT3(d *db) []int {
	ordinal := map[gom.OID]int{}
	for k, id := range d.levels[3] {
		ordinal[id] = k
	}
	seen := make([]bool, len(d.levels[3]))
	for _, id0 := range d.levels[0] {
		o0, _ := d.ob.Get(id0)
		o1, ok := d.ob.Get(o0.AttrOID("Next"))
		if !ok {
			continue
		}
		set, ok := d.ob.Get(o1.AttrOID("Next"))
		if !ok {
			continue
		}
		for _, id2 := range set.ElementOIDs() {
			o2, ok := d.ob.Get(id2)
			if !ok {
				continue
			}
			if k, ok := ordinal[o2.AttrOID("Next")]; ok {
				seen[k] = true
			}
		}
	}
	var out []int
	for k, s := range seen {
		if s {
			out = append(out, k)
		}
	}
	return out
}

// readStream yields the order queries are sent in: each draw picks a
// kind by the workload's mix, then a query of that kind uniformly.
type readStream struct {
	rng *rand.Rand
	qs  *querySet
	mix [3]int // percent per kind, summing to 100
}

func newReadStream(sp spec, qs *querySet, seed int64, lane int) *readStream {
	return &readStream{rng: newRand(seed, saltReadOrder*100+lane), qs: qs, mix: sp.readMix}
}

// next returns an index into the query set.
func (s *readStream) next() int {
	r := s.rng.Intn(100)
	kind := readIndexed
	if r >= s.mix[readIndexed] {
		kind = readScan
		if r >= s.mix[readIndexed]+s.mix[readScan] {
			kind = readForward
		}
	}
	pool := s.qs.byKind[kind]
	return pool[s.rng.Intn(len(pool))]
}

// writeKind is one of the update operations of the write mix.
type writeKind uint8

const (
	writeT2Next    writeKind = iota // SetAttr T2.Next: single reference next to the path's end
	writeT0Next                     // SetAttr T0.Next: single reference at the path's head
	writeSetInsert                  // InsertIntoSet on a T1.Next set
	writeSetRemove                  // RemoveFromSet on a T1.Next set
	writePayload                    // SetAttr T3.Payload: the indexed atomic value
)

type writeOp struct {
	kind writeKind
	obj  gom.OID // tuple or set object mutated
	ref  gom.OID // new reference / set element
	text string  // new payload
}

func (op writeOp) String() string {
	return fmt.Sprintf("%d:%d:%d:%s", op.kind, op.obj, op.ref, op.text)
}

// writeMix is the share of each update kind in percent: 40 % T2.Next,
// 20 % T0.Next, 20 % set insert/remove on T1.Next, 20 % T3.Payload.
var writeMix = [4]int{40, 20, 20, 20}

// writeStream yields the update stream. It tracks the membership of every
// T1.Next set and the payload state it has written, so each operation
// changes the base (no insert of a present element, no remove of an
// absent one) and none can fail; the state it tracks is its own
// bookkeeping of what it has sent, never a response.
type writeStream struct {
	rng     *rand.Rand
	levels  [demoLevels][]gom.OID
	sets    []gom.OID   // the set object behind each T1.Next
	members [][]gom.OID // current elements of each set, in insertion order
	renamed []bool      // per T3 ordinal: payload currently "M3-k", not "L3-k"
}

func newWriteStream(ob *gom.ObjectBase, levels [demoLevels][]gom.OID, seed int64) *writeStream {
	s := &writeStream{rng: newRand(seed, saltWrites), levels: levels, renamed: make([]bool, len(levels[3]))}
	for _, id1 := range levels[1] {
		o1, _ := ob.Get(id1)
		set, ok := ob.Get(o1.AttrOID("Next"))
		if !ok {
			continue
		}
		s.sets = append(s.sets, set.ID())
		s.members = append(s.members, set.ElementOIDs())
	}
	return s
}

func (s *writeStream) pick(lvl int) gom.OID {
	return s.levels[lvl][s.rng.Intn(len(s.levels[lvl]))]
}

func (s *writeStream) next() writeOp {
	r := s.rng.Intn(100)
	switch {
	case r < writeMix[0]:
		return writeOp{kind: writeT2Next, obj: s.pick(2), ref: s.pick(3)}
	case r < writeMix[0]+writeMix[1]:
		return writeOp{kind: writeT0Next, obj: s.pick(0), ref: s.pick(1)}
	case r < writeMix[0]+writeMix[1]+writeMix[2]:
		i := s.rng.Intn(len(s.sets))
		m := s.members[i]
		// Sets hover around the fixture's fan-out of 2: grow below it,
		// shrink above it, toss a coin at it.
		if len(m) < 2 || (len(m) == 2 && s.rng.Intn(2) == 0) {
			for {
				e := s.pick(2)
				if !contains(m, e) {
					s.members[i] = append(m, e)
					return writeOp{kind: writeSetInsert, obj: s.sets[i], ref: e}
				}
			}
		}
		j := s.rng.Intn(len(m))
		e := m[j]
		s.members[i] = append(m[:j:j], m[j+1:]...)
		return writeOp{kind: writeSetRemove, obj: s.sets[i], ref: e}
	default:
		k := s.rng.Intn(len(s.levels[3]))
		s.renamed[k] = !s.renamed[k]
		text := fmt.Sprintf("L3-%d", k)
		if s.renamed[k] {
			text = fmt.Sprintf("M3-%d", k)
		}
		return writeOp{kind: writePayload, obj: s.levels[3][k], text: text}
	}
}

func contains(ids []gom.OID, id gom.OID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// apply performs the update through the object base's public mutators;
// registered Maintainers run inside the call.
func (op writeOp) apply(ob *gom.ObjectBase) error {
	switch op.kind {
	case writeT2Next, writeT0Next:
		return ob.SetAttr(op.obj, "Next", gom.Ref(op.ref))
	case writeSetInsert:
		return ob.InsertIntoSet(op.obj, gom.Ref(op.ref))
	case writeSetRemove:
		return ob.RemoveFromSet(op.obj, gom.Ref(op.ref))
	default:
		return ob.SetAttr(op.obj, "Payload", gom.String(op.text))
	}
}
