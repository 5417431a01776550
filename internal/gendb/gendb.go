// Package gendb generates synthetic GOM object bases matching the
// paper's application characterizations (§4.1, Figure 3): c_i objects
// per type, d_i of them with a defined next-step attribute, fan_i
// references per defined attribute, and configurable reference sharing.
// It substitutes for the engineering databases the paper motivates but
// never ships, and feeds the executable page-level experiments that
// validate the analytical cost model's shape.
package gendb

import (
	"fmt"
	"math/rand"

	"asr/internal/gom"
)

// Spec describes the database to generate: one chain of types
// T0 → T1 → … → Tn.
type Spec struct {
	// N is the path length n (number of reference steps).
	N int
	// C[i] is the object count of type T_i (len n+1).
	C []int
	// D[i] is the number of T_i objects with a defined next attribute
	// (len n).
	D []int
	// Fan[i] is the number of distinct targets each defined attribute
	// references (len n). Fan 1 generates a single-valued attribute
	// (linear path step); larger fans generate set-valued steps.
	Fan []int
	// Sharing selects how targets are drawn.
	Sharing SharingMode
	// Seed makes generation deterministic.
	Seed int64
}

// SharingMode controls target selection for references.
type SharingMode int

// Sharing modes: Uniform draws targets uniformly (the paper's "normal
// distribution of references" default); Clustered draws from a
// contiguous window, producing low sharing and many unreferenced
// objects; Skewed draws Zipf-like, producing heavy sharing of a few
// targets.
const (
	Uniform SharingMode = iota
	Clustered
	Skewed
)

// String names the mode.
func (s SharingMode) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Clustered:
		return "clustered"
	case Skewed:
		return "skewed"
	default:
		return fmt.Sprintf("SharingMode(%d)", int(s))
	}
}

// Database is a generated object base with its path expression and
// per-level extents.
type Database struct {
	Spec    Spec
	Schema  *gom.Schema
	Base    *gom.ObjectBase
	Path    *gom.PathExpression
	Types   []*gom.Type // T_0 … T_n
	Extents [][]gom.OID // Extents[i] lists the T_i objects in creation order
}

// Generate builds the database for the spec.
func Generate(spec Spec) (*Database, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("gendb: N = %d, want ≥ 1", spec.N)
	}
	if len(spec.C) != spec.N+1 {
		return nil, fmt.Errorf("gendb: len(C) = %d, want %d", len(spec.C), spec.N+1)
	}
	if len(spec.D) != spec.N || len(spec.Fan) != spec.N {
		return nil, fmt.Errorf("gendb: len(D)/len(Fan) must be %d", spec.N)
	}
	for i := 0; i < spec.N; i++ {
		if spec.D[i] > spec.C[i] {
			return nil, fmt.Errorf("gendb: D[%d] = %d exceeds C[%d] = %d", i, spec.D[i], i, spec.C[i])
		}
		if spec.Fan[i] < 1 {
			return nil, fmt.Errorf("gendb: Fan[%d] = %d, want ≥ 1", i, spec.Fan[i])
		}
		if spec.Fan[i] > spec.C[i+1] {
			return nil, fmt.Errorf("gendb: Fan[%d] = %d exceeds C[%d] = %d (targets must be distinct)",
				i, spec.Fan[i], i+1, spec.C[i+1])
		}
	}

	schema := gom.NewSchema()
	n := spec.N
	types := make([]*gom.Type, n+1)
	setTypes := make([]*gom.Type, n)
	str := schema.MustLookup("STRING")

	// Types are defined back to front so attribute targets exist.
	var err error
	types[n], err = schema.DefineTuple(fmt.Sprintf("T%d", n), nil,
		[]gom.Attribute{{Name: "Payload", Type: str}})
	if err != nil {
		return nil, err
	}
	for i := n - 1; i >= 0; i-- {
		attrs := []gom.Attribute{{Name: "Payload", Type: str}}
		if spec.Fan[i] == 1 {
			attrs = append(attrs, gom.Attribute{Name: "Next", Type: types[i+1]})
		} else {
			setTypes[i], err = schema.DefineCollection(fmt.Sprintf("T%dSET", i+1), gom.SetType, types[i+1])
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, gom.Attribute{Name: "Next", Type: setTypes[i]})
		}
		types[i], err = schema.DefineTuple(fmt.Sprintf("T%d", i), nil, attrs)
		if err != nil {
			return nil, err
		}
	}

	ob := gom.NewObjectBase(schema)
	rng := rand.New(rand.NewSource(spec.Seed))
	extents := make([][]gom.OID, n+1)
	for i := 0; i <= n; i++ {
		extents[i] = make([]gom.OID, spec.C[i])
		for k := range extents[i] {
			o, err := ob.New(types[i])
			if err != nil {
				return nil, err
			}
			extents[i][k] = o.ID()
		}
	}

	// Wire references level by level: the first D[i] of a random
	// permutation get defined attributes.
	for i := 0; i < n; i++ {
		perm := rng.Perm(spec.C[i])
		for k := 0; k < spec.D[i]; k++ {
			src := extents[i][perm[k]]
			targets := pickTargets(rng, spec.Sharing, extents[i+1], spec.Fan[i], k)
			if spec.Fan[i] == 1 {
				if err := ob.SetAttr(src, "Next", gom.Ref(targets[0])); err != nil {
					return nil, err
				}
				continue
			}
			setObj, err := ob.New(setTypes[i])
			if err != nil {
				return nil, err
			}
			for _, tgt := range targets {
				if err := ob.InsertIntoSet(setObj.ID(), gom.Ref(tgt)); err != nil {
					return nil, err
				}
			}
			if err := ob.SetAttr(src, "Next", gom.Ref(setObj.ID())); err != nil {
				return nil, err
			}
		}
	}

	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = "Next"
	}
	path, err := gom.ResolvePath(types[0], attrs...)
	if err != nil {
		return nil, err
	}
	return &Database{
		Spec:    spec,
		Schema:  schema,
		Base:    ob,
		Path:    path,
		Types:   types,
		Extents: extents,
	}, nil
}

// pickTargets draws fan distinct targets from pool under the sharing
// mode. srcIdx seeds the clustered window.
func pickTargets(rng *rand.Rand, mode SharingMode, pool []gom.OID, fan, srcIdx int) []gom.OID {
	chosen := make(map[int]bool, fan)
	out := make([]gom.OID, 0, fan)
	draw := func() int {
		switch mode {
		case Clustered:
			// A window of 4·fan contiguous targets per source.
			window := 4 * fan
			if window > len(pool) {
				window = len(pool)
			}
			base := (srcIdx * fan) % len(pool)
			return (base + rng.Intn(window)) % len(pool)
		case Skewed:
			// Quadratic skew towards low indexes.
			f := rng.Float64()
			return int(f * f * float64(len(pool)))
		default:
			return rng.Intn(len(pool))
		}
	}
	for len(out) < fan {
		idx := draw()
		if idx >= len(pool) {
			idx = len(pool) - 1
		}
		if chosen[idx] {
			idx = (idx + 1) % len(pool) // linear probe keeps targets distinct
			for chosen[idx] {
				idx = (idx + 1) % len(pool)
			}
		}
		chosen[idx] = true
		out = append(out, pool[idx])
	}
	return out
}

// Insert performs the paper's characteristic update ins_i: a new
// reference from src, a T_i object, to dst, a T_{i+1} object. A
// single-valued step is reassigned; a set-valued step gains dst, in a
// fresh set when src has none yet. The update goes through the object
// base, so its observers (index maintainers) see it.
func (db *Database) Insert(i int, src, dst gom.OID) error {
	if i < 0 || i >= db.Spec.N {
		return fmt.Errorf("gendb: ins_%d: no reference step leaves level %d", i, i)
	}
	o, ok := db.Base.Get(src)
	if !ok || o.Type() != db.Types[i] {
		return fmt.Errorf("gendb: ins_%d: %v is not a T%d object", i, src, i)
	}
	if db.Spec.Fan[i] == 1 {
		return db.Base.SetAttr(src, "Next", gom.Ref(dst))
	}
	v, _ := o.Attr("Next")
	if v == nil {
		set, err := db.Base.New(db.Schema.MustLookup(fmt.Sprintf("T%dSET", i+1)))
		if err != nil {
			return err
		}
		v = gom.Ref(set.ID())
		if err := db.Base.SetAttr(src, "Next", v); err != nil {
			return err
		}
	}
	return db.Base.InsertIntoSet(v.(gom.Ref).OID(), gom.Ref(dst))
}
