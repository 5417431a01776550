package gendb

import "asr/internal/gom"

// Helpers the package's tests use; no product code needs them.

// Stats summarizes the realized connectivity of a generated database —
// the empirical counterparts of the model's d_i, e_i, RefBy(0,i).
type Stats struct {
	Defined    []int // objects per level with a defined Next
	Referenced []int // distinct objects per level referenced from the previous
	Reachable  []int // objects per level reachable from level 0
}

// Measure computes the realized connectivity.
func (db *Database) Measure() Stats {
	n := db.Spec.N
	st := Stats{
		Defined:    make([]int, n),
		Referenced: make([]int, n+1),
		Reachable:  make([]int, n+1),
	}
	reach := make(map[gom.OID]bool, len(db.Extents[0]))
	for _, id := range db.Extents[0] {
		reach[id] = true
	}
	st.Reachable[0] = len(db.Extents[0])
	for i := 0; i < n; i++ {
		next := map[gom.OID]bool{}
		refd := map[gom.OID]bool{}
		for _, id := range db.Extents[i] {
			o, _ := db.Base.Get(id)
			targets := db.targetsOf(o)
			if len(targets) > 0 {
				st.Defined[i]++
			}
			for _, tgt := range targets {
				refd[tgt] = true
				if reach[id] {
					next[tgt] = true
				}
			}
		}
		st.Referenced[i+1] = len(refd)
		st.Reachable[i+1] = len(next)
		reach = next
	}
	return st
}

// targetsOf returns the level-(i+1) objects referenced by o.
func (db *Database) targetsOf(o *gom.Object) []gom.OID {
	v, _ := o.Attr("Next")
	if v == nil {
		return nil
	}
	ref, ok := v.(gom.Ref)
	if !ok {
		return nil
	}
	tgt, ok := db.Base.Get(ref.OID())
	if !ok {
		return nil
	}
	if tgt.Type().Kind() == gom.SetType {
		return tgt.ElementOIDs()
	}
	return []gom.OID{ref.OID()}
}
