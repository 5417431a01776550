// Package engine executes the paper's two abstract query forms —
// forward queries Q_{i,j}(fw) and backward queries Q_{i,j}(bw) (§5.1) —
// against a placed synthetic database, both without access support
// (object traversal / exhaustive search, §5.6) and with an access
// support relation (§5.7). Every evaluation is measured in page
// accesses through the storage layer, making the results directly
// comparable with the analytical predictions of package costmodel.
package engine

import (
	"context"
	"fmt"
	"sort"

	"asr/internal/asr"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
	"asr/internal/telemetry"
)

// Measurement reports the page traffic of one evaluated operation.
// DistinctPages counts each touched page once (the quantity Yao's
// formula estimates); LogicalAccesses counts every access.
type Measurement struct {
	DistinctPages   uint64
	LogicalAccesses uint64
}

// Engine evaluates queries over a placed database.
type Engine struct {
	place *gendb.Placement
}

// New creates an engine over a placement.
func New(place *gendb.Placement) *Engine { return &Engine{place: place} }

// measure runs op against a cold buffer and captures its page traffic.
// The DropClean/ResetStats protocol makes the measurement meaningful
// only when nothing else touches the pool, so an Engine is a
// single-threaded measurement harness: unlike the asr and query layers
// it must not be shared between goroutines.
func (e *Engine) measure(name string, pool *storage.BufferPool, op func() error) (Measurement, error) {
	_, sp := telemetry.StartSpan(context.Background(), name)
	defer sp.End()
	if err := pool.DropClean(); err != nil {
		return Measurement{}, err
	}
	pool.ResetStats()
	if err := op(); err != nil {
		return Measurement{}, err
	}
	st := pool.Stats()
	m := Measurement{DistinctPages: st.Misses, LogicalAccesses: st.LogicalAccesses}
	sp.SetAttr("distinct_pages", m.DistinctPages)
	sp.SetAttr("logical_accesses", m.LogicalAccesses)
	return m, nil
}

// ForwardNoASR evaluates Q_{i,j}(fw) from one anchor object by object
// traversal: read the anchor's record, then every record on a path from
// it, level by level (eq. 31's algorithm).
func (e *Engine) ForwardNoASR(start gom.OID, i, j int) ([]gom.OID, Measurement, error) {
	var result []gom.OID
	m, err := e.measure("engine.forward_noasr", e.place.Pool, func() error {
		frontier := map[gom.OID]bool{start: true}
		for lvl := i; lvl < j; lvl++ {
			next := map[gom.OID]bool{}
			for id := range frontier {
				targets, err := e.place.ReadRecord(id)
				if err != nil {
					return err
				}
				for _, t := range targets {
					next[t] = true
				}
			}
			frontier = next
		}
		result = sortedOIDs(frontier)
		return nil
	})
	return result, m, err
}

// BackwardNoASR evaluates Q_{i,j}(bw): with uni-directional references
// and no access support the only algorithm is exhaustive search — read
// every t_i object (op_i pages) and every connected object of the
// intermediate levels, tracking which anchors reach the target
// (eq. 32's algorithm).
func (e *Engine) BackwardNoASR(target gom.OID, i, j int) ([]gom.OID, Measurement, error) {
	var result []gom.OID
	m, err := e.measure("engine.backward_noasr", e.place.Pool, func() error {
		// Frontier maps a currently-reached object to the set of level-i
		// anchors that reach it.
		frontier := map[gom.OID]map[gom.OID]bool{}
		for _, id := range e.place.DB.Extents[i] {
			targets, err := e.place.ReadRecord(id)
			if err != nil {
				return err
			}
			for _, t := range targets {
				if frontier[t] == nil {
					frontier[t] = map[gom.OID]bool{}
				}
				frontier[t][id] = true
			}
		}
		for lvl := i + 1; lvl < j; lvl++ {
			next := map[gom.OID]map[gom.OID]bool{}
			for id, anchors := range frontier {
				targets, err := e.place.ReadRecord(id)
				if err != nil {
					return err
				}
				for _, t := range targets {
					if next[t] == nil {
						next[t] = map[gom.OID]bool{}
					}
					for a := range anchors {
						next[t][a] = true
					}
				}
			}
			frontier = next
		}
		result = sortedOIDs(frontier[target])
		return nil
	})
	return result, m, err
}

// ForwardASR evaluates Q_{i,j}(fw) through an access support relation,
// measuring the index's page traffic on the index's own pool.
func (e *Engine) ForwardASR(ix *asr.Index, start gom.OID, i, j int) ([]gom.OID, Measurement, error) {
	var result []gom.OID
	m, err := e.measure("engine.forward_asr", ix.Pool(), func() error {
		vals, err := ix.Query(context.Background(), true, i, j, gom.Ref(start))
		if err != nil {
			return err
		}
		result = asr.OIDsOf(vals)
		return nil
	})
	return result, m, err
}

// BackwardASR evaluates Q_{i,j}(bw) through an access support relation.
func (e *Engine) BackwardASR(ix *asr.Index, target gom.OID, i, j int) ([]gom.OID, Measurement, error) {
	var result []gom.OID
	m, err := e.measure("engine.backward_asr", ix.Pool(), func() error {
		vals, err := ix.Query(context.Background(), false, i, j, gom.Ref(target))
		if err != nil {
			return err
		}
		result = asr.OIDsOf(vals)
		return nil
	})
	return result, m, err
}

// InsertWithASR performs the paper's characteristic update ins_i —
// inserting a new reference from src (level i) to dst (level i+1) — with
// index maintenance, measuring the combined object and index page
// traffic. The object base mutation happens through gom so registered
// maintainers fire.
func (e *Engine) InsertWithASR(ix *asr.Index, src, dst gom.OID, maintainer *asr.Maintainer) (Measurement, error) {
	db := e.place.DB
	o, ok := db.Base.Get(src)
	if !ok {
		return Measurement{}, fmt.Errorf("engine: unknown source %v", src)
	}
	lvl := db.Level(o.Type())
	if lvl < 0 || lvl >= db.Spec.N {
		return Measurement{}, fmt.Errorf("engine: source %v is not an interior level", src)
	}
	return e.measureBoth(ix.Pool(), func() error {
		v, _ := o.Attr("Next")
		if db.Spec.Fan[lvl] == 1 {
			if err := db.Base.SetAttr(src, "Next", gom.Ref(dst)); err != nil {
				return err
			}
		} else {
			var setID gom.OID
			if v == nil {
				setObj, err := db.Base.New(db.Schema.MustLookup(fmt.Sprintf("T%dSET", lvl+1)))
				if err != nil {
					return err
				}
				setID = setObj.ID()
				if err := db.Base.SetAttr(src, "Next", gom.Ref(setID)); err != nil {
					return err
				}
			} else {
				setID = v.(gom.Ref).OID()
			}
			if err := db.Base.InsertIntoSet(setID, gom.Ref(dst)); err != nil {
				return err
			}
		}
		if maintainer.Err() != nil {
			return maintainer.Err()
		}
		return e.place.RewriteRecord(src)
	})
}

// measureBoth measures an operation that touches both the object pool
// and the index pool (maintenance does), summing their traffic. When
// both are the same pool it degenerates to measure.
func (e *Engine) measureBoth(ixPool *storage.BufferPool, op func() error) (Measurement, error) {
	pools := []*storage.BufferPool{e.place.Pool}
	if ixPool != e.place.Pool {
		pools = append(pools, ixPool)
	}
	for _, p := range pools {
		if err := p.DropClean(); err != nil {
			return Measurement{}, err
		}
		p.ResetStats()
	}
	if err := op(); err != nil {
		return Measurement{}, err
	}
	var m Measurement
	for _, p := range pools {
		st := p.Stats()
		m.DistinctPages += st.Misses
		m.LogicalAccesses += st.LogicalAccesses
	}
	return m, nil
}

func sortedOIDs(set map[gom.OID]bool) []gom.OID {
	out := make([]gom.OID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
