package gom

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Observer receives change notifications from an ObjectBase. Access
// support relation managers register as observers to maintain their
// extensions incrementally under object updates (§6).
//
// Observers are invoked after the base's write lock has been released,
// so an observer may freely read the object base (and its own indexes)
// from inside a callback. With a single logical writer — the
// concurrency model this repository targets, see docs/CONCURRENCY.md —
// callbacks therefore always observe the post-update state. Concurrent
// writers are serialized on the base itself, but their notification
// order is then unspecified.
type Observer interface {
	// AttrAssigned is called after attribute attr of object o changed
	// from old to new (either may be NULL).
	AttrAssigned(o *Object, attr string, old, new Value)
	// SetInserted is called after elem was inserted into set object set.
	SetInserted(set *Object, elem Value)
	// SetRemoved is called after elem was removed from set object set.
	SetRemoved(set *Object, elem Value)
	// ObjectDeleted is called after object o was removed from the base.
	ObjectDeleted(o *Object)
}

// ObjectBase is a GOM object store: it instantiates types (§2,
// "instantiation"), enforces strong typing on every mutation, maintains
// per-type extents, and publishes updates to observers. References are
// uni-directional, exactly as in the paper — there are no reverse
// pointers in the object representation; backward traversal without an
// access support relation therefore requires exhaustive search.
//
// Objects live in a dense table indexed by OID: OIDs are issued densely
// from 1 and never reused, so fetching an object is one bounds-checked
// slice load, and a deleted object leaves a nil slot behind.
//
// An ObjectBase is safe for concurrent use under a readers/writer
// discipline: any number of goroutines may call the read-only methods
// (Get, Extent, Var, Count, CheckIntegrity, Reach, and every Object
// accessor) concurrently with each other and with at most one mutating
// goroutine. Mutations (New, SetAttr, InsertIntoSet, RemoveFromSet,
// AppendToList, Delete, BindVar, AddObserver, RemoveObserver) take the
// write lock and are internally serialized; observer callbacks run after
// the lock is released. A walk (Walker.Reach, or one block of anchors
// in Walker.KeepReaching) holds the read lock from its first fetch to
// its last, so it sees one state of the base and a writer waits for at
// most one walk or block per reader; no read lock is ever taken while
// another is held, since a queued writer would deadlock the inner one.
type ObjectBase struct {
	mu        sync.RWMutex
	schema    *Schema
	objects   []*Object       // indexed by OID; slot 0 (NilOID) and deleted objects are nil
	live      int             // non-nil slots of objects
	extents   map[*Type][]OID // exact-type extents, in creation order
	vars      map[string]OID  // named roots, e.g. "OurRobots"
	observers []Observer
}

// NewObjectBase creates an empty object base over the given schema.
func NewObjectBase(schema *Schema) *ObjectBase {
	return &ObjectBase{
		schema:  schema,
		objects: []*Object{NilOID: nil},
		extents: make(map[*Type][]OID),
		vars:    make(map[string]OID),
	}
}

// Schema returns the schema the base was created over.
func (ob *ObjectBase) Schema() *Schema { return ob.schema }

// AddObserver registers an update observer.
func (ob *ObjectBase) AddObserver(obs Observer) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	ob.observers = append(ob.observers, obs)
}

// RemoveObserver unregisters obs: a mutation that starts after it
// returns does not reach obs.
func (ob *ObjectBase) RemoveObserver(obs Observer) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	ob.observers = slices.DeleteFunc(ob.observers, func(o Observer) bool { return o == obs })
}

// watchers snapshots the observer list; must be called with ob.mu held.
func (ob *ObjectBase) watchers() []Observer {
	if len(ob.observers) == 0 {
		return nil
	}
	return append([]Observer(nil), ob.observers...)
}

// New instantiates the given type: tuple attributes start NULL, sets and
// lists start empty (§2, "instantiation"). Atomic types have no object
// instances and are rejected.
func (ob *ObjectBase) New(t *Type) (*Object, error) {
	if t == nil {
		return nil, fmt.Errorf("gom: New: nil type")
	}
	if t.schema != ob.schema {
		return nil, fmt.Errorf("gom: New: type %q belongs to a different schema", t.Name())
	}
	if t.Kind() == AtomicType {
		return nil, fmt.Errorf("gom: New: atomic type %q cannot be instantiated", t.Name())
	}
	ob.mu.Lock()
	defer ob.mu.Unlock()
	o := &Object{id: OID(len(ob.objects)), typ: t, base: ob}
	if t.Kind() == TupleType {
		o.attrs = make([]Value, len(t.Attributes()))
	}
	ob.objects = append(ob.objects, o)
	ob.live++
	ob.extents[t] = append(ob.extents[t], o.id)
	return o, nil
}

// MustNew is New panicking on error; for tests and examples.
func (ob *ObjectBase) MustNew(t *Type) *Object {
	o, err := ob.New(t)
	if err != nil {
		panic(err)
	}
	return o
}

// Get returns the object with the given OID.
func (ob *ObjectBase) Get(id OID) (*Object, bool) {
	ob.mu.RLock()
	defer ob.mu.RUnlock()
	return ob.getLocked(id)
}

// getLocked is Get without locking; ob.mu must be held.
func (ob *ObjectBase) getLocked(id OID) (*Object, bool) {
	if id >= OID(len(ob.objects)) {
		return nil, false
	}
	o := ob.objects[id]
	return o, o != nil
}

// Count returns the number of live objects.
func (ob *ObjectBase) Count() int {
	ob.mu.RLock()
	defer ob.mu.RUnlock()
	return ob.live
}

// Extent returns the OIDs of all instances whose exact type is t, or —
// with includeSubtypes — of t and all its subtypes, in creation order.
func (ob *ObjectBase) Extent(t *Type, includeSubtypes bool) []OID {
	ob.mu.RLock()
	defer ob.mu.RUnlock()
	if !includeSubtypes {
		return append([]OID(nil), ob.extents[t]...)
	}
	var out []OID
	for et, ids := range ob.extents {
		if et.IsSubtypeOf(t) {
			out = append(out, ids...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BindVar binds a database variable name (e.g. "OurRobots" or
// "Mercedes") to an object.
func (ob *ObjectBase) BindVar(name string, id OID) error {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if _, ok := ob.getLocked(id); !ok && !id.IsNil() {
		return fmt.Errorf("gom: BindVar(%q): unknown object %s", name, id)
	}
	ob.vars[name] = id
	return nil
}

// Var resolves a bound database variable.
func (ob *ObjectBase) Var(name string) (OID, bool) {
	ob.mu.RLock()
	defer ob.mu.RUnlock()
	id, ok := ob.vars[name]
	return id, ok
}

// VarNames returns the bound database variable names, sorted.
func (ob *ObjectBase) VarNames() []string {
	ob.mu.RLock()
	defer ob.mu.RUnlock()
	out := make([]string, 0, len(ob.vars))
	for name := range ob.vars {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// checkAssignable validates that v may be stored in a slot constrained to
// type want: NULL always may; atomic kinds must match, and a DECIMAL
// must be a finite number (a NaN or an infinity has no decimal
// rendering, and no dump could save it); references must denote a live
// instance of want or a subtype (the constrained type is only an upper
// bound, §2 "strong typing"). Must be called with ob.mu held (read or
// write).
func (ob *ObjectBase) checkAssignable(want *Type, v Value) error {
	if v == nil {
		return nil
	}
	if r, ok := v.(Ref); ok {
		if want.Kind() == AtomicType {
			return fmt.Errorf("gom: cannot store reference in %s slot", want.Name())
		}
		target, live := ob.getLocked(r.OID())
		if !live {
			return fmt.Errorf("gom: dangling reference %s", r.OID())
		}
		if !target.typ.IsSubtypeOf(want) {
			return fmt.Errorf("gom: %s has type %s, not a subtype of %s",
				r.OID(), target.typ.Name(), want.Name())
		}
		return nil
	}
	if want.Kind() != AtomicType {
		return fmt.Errorf("gom: cannot store %s value in %s slot", v.Kind(), want.Name())
	}
	if v.Kind() != want.AtomicKind() {
		return fmt.Errorf("gom: cannot store %s value in %s slot", v.Kind(), want.Name())
	}
	if d, ok := v.(Decimal); ok && (math.IsNaN(float64(d)) || math.IsInf(float64(d), 0)) {
		return fmt.Errorf("gom: cannot store DECIMAL %v in %s slot: not a finite number", d, want.Name())
	}
	return nil
}

// liveLocked reports whether v leads somewhere: it is not NULL and not a
// reference to a deleted object. Must be called with ob.mu held.
func (ob *ObjectBase) liveLocked(v Value) bool {
	if r, ok := v.(Ref); ok {
		_, live := ob.getLocked(r.OID())
		return live
	}
	return v != nil
}

// SetAttr assigns attribute attr of tuple object id to v (NULL when v is
// nil) and notifies observers.
func (ob *ObjectBase) SetAttr(id OID, attr string, v Value) error {
	ob.mu.Lock()
	o, ok := ob.getLocked(id)
	if !ok {
		ob.mu.Unlock()
		return fmt.Errorf("gom: SetAttr: unknown object %s", id)
	}
	if o.typ.Kind() != TupleType {
		ob.mu.Unlock()
		return fmt.Errorf("gom: SetAttr: %s is %s-structured, not a tuple", id, o.typ.Kind())
	}
	slot, ok := o.typ.attrIndex[attr]
	if !ok {
		ob.mu.Unlock()
		return fmt.Errorf("gom: SetAttr: type %s has no attribute %q", o.typ.Name(), attr)
	}
	if err := ob.checkAssignable(o.typ.allAttrs[slot].Type, v); err != nil {
		ob.mu.Unlock()
		return fmt.Errorf("gom: SetAttr %s.%s: %w", o.typ.Name(), attr, err)
	}
	old := o.attrs[slot]
	o.attrs[slot] = v
	changed := !ValuesEqual(old, v)
	var obs []Observer
	if changed {
		obs = ob.watchers()
	}
	ob.mu.Unlock()
	for _, w := range obs {
		w.AttrAssigned(o, attr, old, v)
	}
	return nil
}

// MustSetAttr is SetAttr panicking on error.
func (ob *ObjectBase) MustSetAttr(id OID, attr string, v Value) {
	if err := ob.SetAttr(id, attr, v); err != nil {
		panic(err)
	}
}

// InsertIntoSet inserts v into set object id (a no-op if already
// present) and notifies observers. This is the paper's characteristic
// update operation ins_i of §6.
func (ob *ObjectBase) InsertIntoSet(id OID, v Value) error {
	ob.mu.Lock()
	o, ok := ob.getLocked(id)
	if !ok {
		ob.mu.Unlock()
		return fmt.Errorf("gom: InsertIntoSet: unknown object %s", id)
	}
	if o.typ.Kind() != SetType {
		ob.mu.Unlock()
		return fmt.Errorf("gom: InsertIntoSet: %s is %s-structured, not a set", id, o.typ.Kind())
	}
	if v == nil {
		ob.mu.Unlock()
		return fmt.Errorf("gom: InsertIntoSet: cannot insert NULL into a set")
	}
	if err := ob.checkAssignable(o.typ.Elem(), v); err != nil {
		ob.mu.Unlock()
		return fmt.Errorf("gom: InsertIntoSet into %s: %w", o.typ.Name(), err)
	}
	if o.find(v) >= 0 {
		ob.mu.Unlock()
		return nil
	}
	o.insert(v)
	obs := ob.watchers()
	ob.mu.Unlock()
	for _, w := range obs {
		w.SetInserted(o, v)
	}
	return nil
}

// MustInsertIntoSet is InsertIntoSet panicking on error.
func (ob *ObjectBase) MustInsertIntoSet(id OID, v Value) {
	if err := ob.InsertIntoSet(id, v); err != nil {
		panic(err)
	}
}

// RemoveFromSet removes v from set object id (a no-op if absent) and
// notifies observers.
func (ob *ObjectBase) RemoveFromSet(id OID, v Value) error {
	ob.mu.Lock()
	o, ok := ob.getLocked(id)
	if !ok {
		ob.mu.Unlock()
		return fmt.Errorf("gom: RemoveFromSet: unknown object %s", id)
	}
	if o.typ.Kind() != SetType {
		ob.mu.Unlock()
		return fmt.Errorf("gom: RemoveFromSet: %s is %s-structured, not a set", id, o.typ.Kind())
	}
	i := o.find(v)
	if i < 0 {
		ob.mu.Unlock()
		return nil
	}
	o.removeAt(i)
	obs := ob.watchers()
	ob.mu.Unlock()
	for _, w := range obs {
		w.SetRemoved(o, v)
	}
	return nil
}

// AppendToList appends v to list object id.
func (ob *ObjectBase) AppendToList(id OID, v Value) error {
	ob.mu.Lock()
	o, ok := ob.getLocked(id)
	if !ok {
		ob.mu.Unlock()
		return fmt.Errorf("gom: AppendToList: unknown object %s", id)
	}
	if o.typ.Kind() != ListType {
		ob.mu.Unlock()
		return fmt.Errorf("gom: AppendToList: %s is %s-structured, not a list", id, o.typ.Kind())
	}
	if err := ob.checkAssignable(o.typ.Elem(), v); err != nil {
		ob.mu.Unlock()
		return fmt.Errorf("gom: AppendToList into %s: %w", o.typ.Name(), err)
	}
	o.elems = append(o.elems, v)
	obs := ob.watchers()
	ob.mu.Unlock()
	// List insertion is reported through the set-insertion hook: access
	// support over ordered collections is analogous to sets (§2.1).
	for _, w := range obs {
		w.SetInserted(o, v)
	}
	return nil
}

// Delete removes an object from the base. Incoming references become
// dangling; since GOM references are uni-directional the base cannot
// find them cheaply — callers that need referential integrity should
// clear referrers first (CheckIntegrity finds violations).
func (ob *ObjectBase) Delete(id OID) error {
	ob.mu.Lock()
	o, ok := ob.getLocked(id)
	if !ok {
		ob.mu.Unlock()
		return fmt.Errorf("gom: Delete: unknown object %s", id)
	}
	ob.objects[id] = nil
	ob.live--
	ext := ob.extents[o.typ]
	for i, e := range ext {
		if e == id {
			ob.extents[o.typ] = append(ext[:i], ext[i+1:]...)
			break
		}
	}
	obs := ob.watchers()
	ob.mu.Unlock()
	for _, w := range obs {
		w.ObjectDeleted(o)
	}
	return nil
}

// CheckIntegrity scans the whole base in OID order and returns every
// dangling reference as an error slice (empty means consistent).
func (ob *ObjectBase) CheckIntegrity() []error {
	ob.mu.RLock()
	defer ob.mu.RUnlock()
	var errs []error
	dangling := func(v Value) bool {
		_, ok := v.(Ref)
		return ok && !ob.liveLocked(v)
	}
	for _, o := range ob.objects {
		if o == nil {
			continue
		}
		for i, v := range o.attrs {
			if dangling(v) {
				errs = append(errs, fmt.Errorf("gom: dangling reference %s at %s.%s", v, o.id, o.typ.allAttrs[i].Name))
			}
		}
		for _, v := range o.elementsLocked() {
			if dangling(v) {
				errs = append(errs, fmt.Errorf("gom: dangling reference %s at %s element", v, o.id))
			}
		}
	}
	return errs
}
