package gom

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Object is an object instance: the triple (identifier, value, type) of
// §2.2. Depending on the type's outer constructor the value part is a
// tuple of attribute values, a set, or a list. Objects are created and
// mutated only through their owning ObjectBase, which enforces strong
// typing and notifies registered observers (used for incremental access
// support relation maintenance).
//
// A tuple is slotted: one Value per position of Type.Attributes(), found
// through the type's attribute index, nil for NULL — types are frozen
// before any instance exists, so the layout cannot change under an
// object. A set or list keeps its elements in one slice; a set holds no
// two elements with the same canonical key, scans a small set for a
// member and keeps a key → position index beside a large one.
//
// Object accessors share the owning ObjectBase's readers/writer lock:
// they are safe to call from any number of goroutines concurrently with
// each other and with base mutations (ID and Type are immutable and
// lock-free).
type Object struct {
	id   OID
	typ  *Type
	base *ObjectBase

	attrs []Value        // tuple objects: one slot per Type.Attributes() position
	elems []Value        // set and list objects
	index map[string]int // large set objects: valueKey → position in elems
}

// ID returns the object identifier.
func (o *Object) ID() OID { return o.id }

// Type returns the object's type.
func (o *Object) Type() *Type { return o.typ }

// Attr returns the value of the named attribute, which is NULL (nil) if
// never assigned. The second result reports whether the attribute exists
// on the object's type at all.
func (o *Object) Attr(name string) (Value, bool) {
	o.base.mu.RLock()
	defer o.base.mu.RUnlock()
	return o.attrLocked(name)
}

// attrLocked is Attr without locking; o.base.mu must be held.
func (o *Object) attrLocked(name string) (Value, bool) {
	slot := o.typ.slot(name)
	if slot < 0 {
		return nil, false
	}
	return o.attrs[slot], true
}

// AttrOID returns the OID stored in a reference-valued attribute, or
// NilOID if the attribute is NULL or not a reference.
func (o *Object) AttrOID(name string) OID {
	v, _ := o.Attr(name)
	if r, ok := v.(Ref); ok {
		return r.OID()
	}
	return NilOID
}

// Len returns the element count of a set or list object, and 0 otherwise.
func (o *Object) Len() int {
	o.base.mu.RLock()
	defer o.base.mu.RUnlock()
	return len(o.elems)
}

// Elements returns the elements of a set object in a deterministic order
// (sorted by canonical key), or of a list object in list order.
func (o *Object) Elements() []Value {
	o.base.mu.RLock()
	defer o.base.mu.RUnlock()
	return o.elementsLocked()
}

// elementsLocked is Elements without locking; o.base.mu must be held.
func (o *Object) elementsLocked() []Value {
	out := slices.Clone(o.elems)
	if o.typ.Kind() == SetType {
		slices.SortFunc(out, compareKeys)
	}
	return out
}

// AppendElements appends the elements of a set or list object to dst
// and returns it: a list's in list order, a set's in no particular
// order — what a caller that only iterates or re-sorts wants, since
// Elements pays for a sort of the canonical keys.
func (o *Object) AppendElements(dst []Value) []Value {
	o.base.mu.RLock()
	defer o.base.mu.RUnlock()
	return append(dst, o.elems...)
}

// appendLiveLocked appends the live elements to dst — a set's in
// Elements' order when ordered, else in the order the set stores them,
// which does not sort; o.base.mu must be held.
func (o *Object) appendLiveLocked(dst []Value, ordered bool) []Value {
	n := len(dst)
	for _, e := range o.elems {
		if o.base.liveLocked(e) {
			dst = append(dst, e)
		}
	}
	if ordered && o.typ.Kind() == SetType {
		slices.SortFunc(dst[n:], compareKeys)
	}
	return dst
}

// Follow reads o.A_j for one path step the way Definition 3.3 does and
// appends what the step leads to onto dst: the attribute's value for a
// single-valued step, every live element of the referenced set object
// for a set occurrence, in Elements' order. A NULL attribute, a
// reference to a deleted object and a set attribute holding anything but
// a reference (which strong typing rules out) lead nowhere. For a set
// occurrence, set is the reference to the live set object — reported
// even when nothing is appended, because Definition 3.3 gives an empty
// set the row (o, set, NULL) — and nil otherwise.
func (o *Object) Follow(step PathStep, dst []Value) (set Value, _ []Value) {
	o.base.mu.RLock()
	defer o.base.mu.RUnlock()
	return o.followLocked(&step, dst, true)
}

// followLocked is Follow without locking; with ordered false a set's
// elements come in no particular order, for the caller that imposes its
// own (Walker's walks). o.base.mu must be held.
func (o *Object) followLocked(step *PathStep, dst []Value, ordered bool) (set Value, _ []Value) {
	ob := o.base
	var v Value
	if slot := step.slotIn(o.typ); slot >= 0 {
		v = o.attrs[slot]
	}
	if !ob.liveLocked(v) {
		return nil, dst
	}
	if !step.IsSetOccurrence() {
		return nil, append(dst, v)
	}
	ref, ok := v.(Ref)
	if !ok {
		return nil, dst
	}
	setObj, _ := ob.getLocked(ref.OID())
	return v, setObj.appendLiveLocked(dst, ordered)
}

// Reach evaluates steps i+1…j of path from the start values by object
// traversal — the closure of Follow over those steps, which is how a
// path query is answered when no access support relation covers it
// (Q_nas, §5.6): the query engine's predicate re-check, projection and
// dependent ranges, and asr.Manager's forward traversal and exhaustive
// search all walk through here. It returns the values reached at step j,
// each once, in no particular order, and the number of objects fetched from
// the base on the way: one per live reference on a frontier — the
// record-access unit eq. (31) predicts. Frontier values that are not
// references, or refer to deleted objects, lead nowhere. The start
// values are walked as given (not de-duplicated); the caller guarantees
// 0 ≤ i ≤ j ≤ path.Len(). The result is the caller's to keep; a caller
// that walks from many objects in turn uses a Walker.
func (ob *ObjectBase) Reach(path *PathExpression, i, j int, start ...Value) (reached []Value, fetches uint64) {
	return ob.NewWalker().Reach(path, i, j, start...)
}

// Walker is Reach with its working storage kept from one call to the
// next: the two frontiers a walk alternates between and, for the steps
// that need it, the de-duplication state. A walk from one object costs
// no allocation once the buffers have grown to the widest frontier, so
// a loop over the anchors of a query allocates per Walker, not per
// anchor; an object of a step's domain type is read at the attribute
// slot resolved with the path, not looked up by name. A Walker serves
// one goroutine; each Reach holds the base's read lock once, for the
// whole walk, and KeepReaching and KeepMembers once per block of anchors
// or members.
type Walker struct {
	ob       *ObjectBase
	frontier [2][]Value
	targets  []Value
	seen     map[string]bool
	key      []byte
	anchor   [1]Value // the filters' start frontier
}

// NewWalker returns a Walker over ob.
func (ob *ObjectBase) NewWalker() *Walker { return &Walker{ob: ob} }

// Reach is ObjectBase.Reach into the Walker's buffers: the values
// returned are BORROWED, valid until the Walker's next Reach.
func (w *Walker) Reach(path *PathExpression, i, j int, start ...Value) (reached []Value, fetches uint64) {
	w.ob.mu.RLock()
	defer w.ob.mu.RUnlock()
	return w.reachLocked(path, i, j, start)
}

// walkBlock is how many anchors KeepReaching and KeepMembers walk under
// one read lock and one cancellation check: enough that neither is paid
// per anchor, few enough that a writer waits for a short walk, not a
// whole collection's.
const walkBlock = 256

// KeepReaching appends to dst, in order, every anchor from which steps
// i+1…j of path reach a value equal to one of want (exists semantics
// over set-valued steps): each anchor is walked exactly as Reach walks
// it, and the fetches of all the walks are summed. The anchors are
// walked walkBlock at a time, each block under one read lock, and ctx is
// checked before each block; on cancellation it returns the anchors
// kept so far with ctx's error. dst may be anchors[:0]: the filter then
// runs in place.
//
// Nothing is called out of the package while the lock is held, so a
// caller may probe an index or take other locks between calls.
func (w *Walker) KeepReaching(ctx context.Context, dst, anchors []Value, path *PathExpression, i, j int, want ...Value) (kept []Value, fetches uint64, err error) {
	for lo := 0; lo < len(anchors); lo += walkBlock {
		if err := ctx.Err(); err != nil {
			return dst, fetches, err
		}
		var n uint64
		dst, n = w.keepBlock(dst, anchors[lo:min(lo+walkBlock, len(anchors))], nil, nil, path, i, j, want)
		fetches += n
	}
	return dst, fetches, nil
}

// KeepMembers is KeepReaching over the elements of coll, a set or list
// object, read where the object keeps them: nothing is copied but what
// is kept, which is appended to dst in no particular order. The
// elements are walked from the end toward the start, walkBlock at a
// time, each block under one read lock and after one check of ctx.
//
// A set changes only by appending and by moving its last element into a
// removed one's place, a list only by appending. So between blocks every
// element before the next block's end is unwalked, an element can only
// move toward the start, and one present for the whole walk is walked:
// at worst one moved out of the part already walked is walked, and kept,
// twice. One added or removed while the walk runs may be walked or not.
func (w *Walker) KeepMembers(ctx context.Context, dst []Value, coll *Object, path *PathExpression, i, j int, want ...Value) (kept []Value, fetches uint64, err error) {
	for end := math.MaxInt; end > 0; {
		if err := ctx.Err(); err != nil {
			return dst, fetches, err
		}
		var n uint64
		dst, n = w.keepBlock(dst, nil, coll, &end, path, i, j, want)
		fetches += n
	}
	return dst, fetches, nil
}

// keepBlock is one block of KeepReaching or KeepMembers under one read
// lock: the anchors block, or with coll the at most walkBlock elements
// of coll before *end, moving *end to the first of them.
func (w *Walker) keepBlock(dst, block []Value, coll *Object, end *int, path *PathExpression, i, j int, want []Value) (_ []Value, fetches uint64) {
	w.ob.mu.RLock()
	defer w.ob.mu.RUnlock()
	if coll != nil {
		hi := min(*end, len(coll.elems))
		*end = max(hi-walkBlock, 0)
		block = coll.elems[*end:hi]
	}
	for _, a := range block {
		w.anchor[0] = a
		reached, n := w.reachLocked(path, i, j, w.anchor[:])
		fetches += n
		if reachesAny(reached, want) {
			dst = append(dst, a)
		}
	}
	return dst, fetches
}

// reachesAny reports whether a reached value equals one of want.
func reachesAny(reached, want []Value) bool {
	for _, v := range reached {
		for _, t := range want {
			if ValuesEqual(v, t) {
				return true
			}
		}
	}
	return false
}

// reachLocked is Reach without locking; ob.mu must be held.
//
// A value can reach a frontier twice only where two frontier objects
// lead to it or a list holds it twice. A frontier of one value followed
// over a single-valued attribute or into a set cannot repeat, so those
// steps — every step of a linear path walked from one anchor — append
// straight into the next frontier; the others de-duplicate by rendered
// value.
func (w *Walker) reachLocked(path *PathExpression, i, j int, start []Value) (reached []Value, fetches uint64) {
	ob := w.ob
	cur := start
	for s, k := i+1, 0; s <= j; s, k = s+1, k^1 {
		step := &path.steps[s-1]
		next := w.frontier[k][:0]
		dedup := len(cur) > 1 || (step.IsSetOccurrence() && step.Set.Kind() == ListType)
		if dedup {
			if w.seen == nil {
				w.seen = map[string]bool{}
			}
			clear(w.seen)
		}
		for _, v := range cur {
			ref, ok := v.(Ref)
			if !ok {
				continue
			}
			o, ok := ob.getLocked(ref.OID())
			if !ok {
				continue
			}
			fetches++
			if !dedup {
				_, next = o.followLocked(step, next, false)
				continue
			}
			_, w.targets = o.followLocked(step, w.targets[:0], false)
			for _, t := range w.targets {
				w.key = AppendValueString(w.key[:0], t)
				if !w.seen[string(w.key)] {
					w.seen[string(w.key)] = true
					next = append(next, t)
				}
			}
		}
		w.frontier[k] = next
		cur = next
	}
	return cur, fetches
}

// ElementOIDs returns the OIDs of all reference elements of a set or
// list object, in deterministic order.
func (o *Object) ElementOIDs() []OID {
	var out []OID
	for _, v := range o.Elements() {
		if r, ok := v.(Ref); ok {
			out = append(out, r.OID())
		}
	}
	return out
}

// Contains reports whether a set or list object holds the given value:
// a set by canonical key (a scan of a small set, one probe of a large
// one's index), a list by a scan.
func (o *Object) Contains(v Value) bool {
	o.base.mu.RLock()
	defer o.base.mu.RUnlock()
	if o.typ.Kind() == SetType {
		return o.find(v) >= 0
	}
	for _, e := range o.elems {
		if ValuesEqual(e, v) {
			return true
		}
	}
	return false
}

// String renders the object in the style of the paper's Figure 1/2
// extension tables.
func (o *Object) String() string {
	o.base.mu.RLock()
	defer o.base.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", o.id, o.typ.Name())
	switch o.typ.Kind() {
	case TupleType:
		b.WriteString("[")
		for i, a := range o.typ.Attributes() {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", a.Name, ValueString(o.attrs[i]))
		}
		b.WriteString("]")
	case SetType:
		b.WriteString("{")
		for i, v := range o.elementsLocked() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ValueString(v))
		}
		b.WriteString("}")
	case ListType:
		b.WriteString("<")
		for i, v := range o.elems {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ValueString(v))
		}
		b.WriteString(">")
	}
	return b.String()
}
