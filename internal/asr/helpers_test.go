package asr

import (
	"fmt"
	"testing"

	"asr/internal/btree"
	"asr/internal/gom"
	"asr/internal/relation"
	"asr/internal/storage"
)

// Helpers the package's tests use as references and fixtures; no
// product code needs them.

// diskImage copies every allocated page of d, keyed by id.
func diskImage(t *testing.T, d *storage.Disk) map[storage.PageID][]byte {
	t.Helper()
	out := map[storage.PageID][]byte{}
	for id := storage.PageID(1); len(out) < d.NumPages(); id++ {
		buf := make([]byte, d.PageSize())
		if d.Read(id, buf) == nil {
			out[id] = buf
		}
	}
	return out
}

// contains reports whether r holds t.
func contains(r *relation.Relation, t relation.Tuple) bool {
	found := false
	r.Each(func(u relation.Tuple) bool {
		found = u.Key() == t.Key()
		return !found
	})
	return found
}

// NewPartition creates an empty stored partition of the given arity
// (≥ 2: at least one edge).
func NewPartition(pool *storage.BufferPool, name string, arity int) (*Partition, error) {
	if arity < 2 {
		return nil, fmt.Errorf("asr: partition %s: arity %d, want ≥ 2", name, arity)
	}
	meta, err := allocMetaPage(pool)
	if err != nil {
		return nil, err
	}
	fwd, err := btree.New(pool, name+".fwd")
	if err != nil {
		return nil, err
	}
	bwd, err := btree.New(pool, name+".bwd")
	if err != nil {
		return nil, err
	}
	p := &Partition{name: name, arity: arity, pool: pool, meta: meta, fwd: fwd, bwd: bwd}
	if err := p.syncMetaLocked(); err != nil {
		return nil, err
	}
	return p, nil
}

// AsRelation materializes the stored rows as an in-memory relation with
// the given column names (len must equal Arity).
func (p *Partition) AsRelation(cols []string) (*relation.Relation, error) {
	if len(cols) != p.arity {
		return nil, fmt.Errorf("asr: partition %s: %d column names for arity %d", p.name, len(cols), p.arity)
	}
	rel := relation.New(p.name, cols...)
	err := p.ScanAll(func(t relation.Tuple) bool {
		rel.MustInsert(t)
		return true
	})
	return rel, err
}

// CheckConsistent verifies that the backward tree holds exactly the
// forward tree's rows, that every stored count is positive, and that
// both trees satisfy their structural invariants; intended for tests.
func (p *Partition) CheckConsistent() error {
	stored := map[string]int{}
	p.mu.RLock()
	err := p.scanRows(p.fwd, 0, func(t relation.Tuple, v []byte) error {
		cnt, err := decodeRefcnt(v)
		if err == nil && cnt <= 0 {
			err = fmt.Errorf("asr: partition %s: stored row %v has reference count %d", p.name, t, cnt)
		}
		stored[t.Key()] = cnt
		return err
	})
	p.mu.RUnlock()
	if err != nil {
		return err
	}
	_, err = p.drift(stored)
	return err
}

// EnumerateDecompositions yields every decomposition of an (m+1)-column
// relation — all 2^(m-1) subsets of the interior boundaries {1..m-1} —
// in a deterministic order. The physical-design advisor sweeps these.
func EnumerateDecompositions(m int) []Decomposition {
	if m < 1 {
		return nil
	}
	interior := m - 1
	out := make([]Decomposition, 0, 1<<uint(interior))
	for mask := 0; mask < 1<<uint(interior); mask++ {
		d := Decomposition{0}
		for b := 1; b < m; b++ {
			if mask&(1<<uint(b-1)) != 0 {
				d = append(d, b)
			}
		}
		d = append(d, m)
		out = append(out, d)
	}
	return out
}

// SharedPartition returns the physically shared partition.
func (sp *SharedPair) SharedPartition() *Partition {
	return sp.P.parts[sp.Plan.PPartIdx].Part
}

// buildShared builds the §5.4 shared pair for p and q on pool, like
// Manager.CreateShared but unmaintained: the rebuild a maintained pair
// is compared against.
func buildShared(ob *gom.ObjectBase, p, q *gom.PathExpression, pool *storage.BufferPool) (*SharedPair, error) {
	plan, err := PlanSharing(p, q)
	if err != nil {
		return nil, err
	}
	pIx, err := build(ob, p, plan.Extension, plan.PDec, pool, nil)
	if err != nil {
		return nil, err
	}
	qIx, err := build(ob, q, plan.Extension, plan.QDec, pool, map[int]*Partition{plan.QPartIdx: pIx.parts[plan.PPartIdx].Part})
	if err != nil {
		return nil, err
	}
	return &SharedPair{Plan: plan, P: pIx, Q: qIx}, nil
}
