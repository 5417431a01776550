package bench

import (
	"context"
	"fmt"

	"asr/internal/asr"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/storage"
)

// Page-level measurement for the simulations (sim, sim-update, sim-mix,
// validate). A query without access support is evaluated the way the
// object base evaluates it for clients — gom.ObjectBase.Reach — and
// charged on a type-clustered placement of the generated objects (§5.5).
// A query through an access support relation, and the maintenance an
// update triggers, are charged on the index's own buffer pool.

// measurement reports the page traffic of one evaluated operation.
// DistinctPages counts each touched page once (the quantity Yao's
// formula estimates); LogicalAccesses counts every access.
type measurement struct {
	DistinctPages   uint64
	LogicalAccesses uint64
}

// layout assigns every object of a generated database its page under
// type clustering: level by level, in extent order, ⌊PageSize/size_i⌋
// objects per page, so level i fills op_i = ⌈c_i/⌊PageSize/size_i⌋⌉
// pages (eq. 18). Set objects get no pages: the cost model counts a
// set-valued attribute as part of its owner.
type layout struct {
	db   *gendb.Database
	page map[gom.OID]int
}

// newLayout places db with the given object sizes (len n+1, in bytes).
func newLayout(db *gendb.Database, sizes []float64) (*layout, error) {
	if len(sizes) != len(db.Extents) {
		return nil, fmt.Errorf("bench: %d object sizes for %d levels", len(sizes), len(db.Extents))
	}
	l := &layout{db: db, page: make(map[gom.OID]int, db.Base.Count())}
	first := 0 // level i's first page
	for i, ext := range db.Extents {
		if sizes[i] <= 0 || sizes[i] > storage.DefaultPageSize {
			return nil, fmt.Errorf("bench: size_%d = %g bytes does not fit a page of %d",
				i, sizes[i], storage.DefaultPageSize)
		}
		perPage := int(storage.DefaultPageSize / sizes[i])
		for k, id := range ext {
			l.page[id] = first + k/perPage
		}
		first += (len(ext) + perPage - 1) / perPage
	}
	return l, nil
}

// traverse charges the object traversal of steps i+1…j from start
// (eq. 31's algorithm): at each level s = i…j−1, one access to the page
// of every object Reach(path, i, s, start…) returns. The walk advances
// one step per Reach, which reaches the same objects as a walk from
// start to each level in turn.
func (l *layout) traverse(i, j int, start ...gom.Value) measurement {
	var m measurement
	pages := map[int]bool{}
	cur := start
	for s := i; s < j; s++ {
		for _, v := range cur {
			pages[l.page[v.(gom.Ref).OID()]] = true
		}
		m.LogicalAccesses += uint64(len(cur))
		cur, _ = l.db.Base.Reach(l.db.Path, s, s+1, cur...)
	}
	m.DistinctPages = uint64(len(pages))
	return m
}

// search charges the exhaustive search that answers Q_{i,j}(bw) without
// access support (eq. 32's algorithm): whatever the target, every t_i
// object is read, and every object reachable from one of them up to
// level j−1.
func (l *layout) search(i, j int) measurement {
	anchors := make([]gom.Value, len(l.db.Extents[i]))
	for k, id := range l.db.Extents[i] {
		anchors[k] = gom.Ref(id)
	}
	return l.traverse(i, j, anchors...)
}

// unsupported charges Q_{i,j} from v as it is answered without access
// support: by traversal forward, by exhaustive search backward, where v
// does not matter.
func (l *layout) unsupported(fwd bool, i, j int, v gom.OID) measurement {
	if fwd {
		return l.traverse(i, j, gom.Ref(v))
	}
	return l.search(i, j)
}

// coldRun runs op on a cold pool — clean pages dropped, counters reset
// — and returns its traffic; a cold pool misses each page op touches
// once. Nothing else may use the pool meanwhile.
func coldRun(pool *storage.BufferPool, op func() error) (measurement, error) {
	if err := pool.DropClean(); err != nil {
		return measurement{}, err
	}
	pool.ResetStats()
	if err := op(); err != nil {
		return measurement{}, err
	}
	st := pool.Stats()
	return measurement{DistinctPages: st.Misses, LogicalAccesses: st.LogicalAccesses}, nil
}

// indexQuery measures Q_{i,j} through ix from one start (forward) or
// end (backward) object. It fails with asr.ErrNotSupported when ix
// cannot answer the span.
func indexQuery(ix *asr.Index, fwd bool, i, j int, v gom.OID) (measurement, error) {
	return coldRun(ix.Pool(), func() error {
		_, err := ix.Query(context.Background(), fwd, i, j, gom.Ref(v))
		return err
	})
}

// insert performs ins_i from src to dst through the object base, so the
// registered maintainer updates ix, and measures it: the index pool's
// traffic plus one access to src's page, the one object record the
// update rewrites.
func insert(db *gendb.Database, ix *asr.Index, maint *asr.Maintainer, i int, src, dst gom.OID) (measurement, error) {
	m, err := coldRun(ix.Pool(), func() error {
		if err := db.Insert(i, src, dst); err != nil {
			return err
		}
		return maint.Err()
	})
	if err != nil {
		return measurement{}, err
	}
	return measurement{DistinctPages: m.DistinctPages + 1, LogicalAccesses: m.LogicalAccesses + 1}, nil
}
