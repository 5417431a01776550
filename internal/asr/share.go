package asr

import (
	"fmt"

	"asr/internal/gom"
	"asr/internal/storage"
)

// SharingPlan describes how two path expressions can share one physical
// access support relation partition over their common attribute-chain
// segment (§5.4). All positions are object steps; the derived
// decompositions are in relation-column space.
type SharingPlan struct {
	// PStart/QStart are the object steps at which the shared segment
	// begins in each path; Length is the shared step count (the paper's
	// j).
	PStart, QStart, Length int
	// Extension that admits the sharing: Full in general; LeftComplete
	// when both segments start at step 0; RightComplete when both end at
	// their path's final step (§5.4's two exceptions). Canonical never
	// shares.
	Extension Extension
	// PDec and QDec are decompositions of the two relations that expose
	// the shared segment as a standalone partition, in the paper's
	// (0, i, i+j, n) shape, expressed in column indexes.
	PDec, QDec Decomposition
	// PPartIdx and QPartIdx are the indexes of the shared partition
	// within PDec and QDec.
	PPartIdx, QPartIdx int
}

// PlanSharing finds the longest shareable segment of two paths and the
// strongest extension that admits sharing it. It returns an error when
// no segment of length ≥ 1 is shared or when only canonical extensions
// were requested.
func PlanSharing(p, q *gom.PathExpression) (*SharingPlan, error) {
	pStart, qStart, length, ok := gom.SharedSegment(p, q)
	if !ok {
		return nil, fmt.Errorf("asr: paths %s and %s share no segment", p, q)
	}
	plan := &SharingPlan{PStart: pStart, QStart: qStart, Length: length}
	switch {
	case pStart == 0 && qStart == 0:
		// Both paths traverse the shared chain from their anchors; a
		// left-complete prefix partition can be shared.
		plan.Extension = LeftComplete
	case pStart+length == p.Len() && qStart+length == q.Len():
		plan.Extension = RightComplete
	default:
		plan.Extension = Full
	}
	plan.PDec, plan.PPartIdx = segmentDecomposition(p, pStart, length)
	plan.QDec, plan.QPartIdx = segmentDecomposition(q, qStart, length)
	return plan, nil
}

// segmentDecomposition builds the (0, cStart, cEnd, m) column
// decomposition that isolates object steps [start, start+length] as one
// partition, degenerating gracefully at the borders.
func segmentDecomposition(p *gom.PathExpression, start, length int) (Decomposition, int) {
	m := p.Arity() - 1
	cs := p.ObjectColumn(start)
	ce := p.ObjectColumn(start + length)
	d := Decomposition{0}
	idx := 0
	if cs > 0 {
		d = append(d, cs)
		idx = 1
	}
	d = append(d, ce)
	if ce < m {
		d = append(d, m)
	}
	return d, idx
}

// SharedPair is two indexes over overlapping paths that physically share
// the partition covering their common segment: rows contributed by both
// paths are merged by reference counting, so the shared trees are stored
// once.
type SharedPair struct {
	Plan *SharingPlan
	P, Q *Index
}

// BuildShared builds indexes for both paths in the plan's extension with
// the plan's decompositions, wiring the shared segment to one physical
// partition. Both indexes must be maintained (two Maintainers) for the
// shared partition to stay consistent under updates.
func BuildShared(ob *gom.ObjectBase, p, q *gom.PathExpression, pool *storage.BufferPool) (*SharedPair, error) {
	plan, err := PlanSharing(p, q)
	if err != nil {
		return nil, err
	}
	pIx, err := build(ob, p, plan.Extension, plan.PDec, pool, nil)
	if err != nil {
		return nil, err
	}
	shared := pIx.parts[plan.PPartIdx].Part
	qIx, err := build(ob, q, plan.Extension, plan.QDec, pool, map[int]*Partition{plan.QPartIdx: shared})
	if err != nil {
		return nil, err
	}
	return &SharedPair{Plan: plan, P: pIx, Q: qIx}, nil
}
