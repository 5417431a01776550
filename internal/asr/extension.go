// Package asr implements access support relations — the paper's primary
// contribution (Kemper & Moerkotte, "Access Support in Object Bases",
// SIGMOD 1990). An access support relation materializes the object
// identifiers along a path expression t_0.A_1.….A_n so that forward and
// backward queries over the path become index lookups instead of object
// traversals or exhaustive searches.
//
// The package provides:
//   - auxiliary relations E_0 … E_{n-1} over a GOM object base (Def. 3.3),
//   - the four extensions — canonical, full, left-complete,
//     right-complete — built by join composition (Defs. 3.4–3.7),
//   - arbitrary decompositions into partitions (Def. 3.8) with the
//     losslessness property of Theorem 3.9,
//   - dual-clustered B⁺-tree storage per partition (§5.2),
//   - query evaluation over the partitions (§5.3, §5.7), and
//   - incremental maintenance under object-base updates (§6).
package asr

import (
	"fmt"

	"asr/internal/costmodel"
	"asr/internal/gom"
	"asr/internal/relation"
)

// Extension selects how much (partial) path information an access
// support relation keeps (§3). It is the cost model's type: the relation
// that is built and the formulas that price it name their extension
// with one set of values.
type Extension = costmodel.Extension

// The four extensions of Definitions 3.4–3.7.
const (
	// Canonical keeps only complete paths from t_0 to t_n.
	Canonical = costmodel.Canonical
	// Full keeps every maximal partial path.
	Full = costmodel.Full
	// LeftComplete keeps partial paths originating in t_0.
	LeftComplete = costmodel.LeftComplete
	// RightComplete keeps partial paths reaching t_n.
	RightComplete = costmodel.RightComplete
)

// Extensions lists all four extensions, for sweeps.
var Extensions = costmodel.Extensions

// BuildExtension composes the auxiliary relations into the chosen
// extension of the access support relation:
//
//	E_can   = E_0 ⨝ … ⨝ E_{n-1}              (Def. 3.4)
//	E_full  = E_0 ⟗ … ⟗ E_{n-1}              (Def. 3.5)
//	E_left  = (…(E_0 ⟕ E_1) ⟕ …) ⟕ E_{n-1}   (Def. 3.6)
//	E_right = E_0 ⟖ (… ⟖ (E_{n-2} ⟖ E_{n-1})) (Def. 3.7)
func BuildExtension(ext Extension, name string, aux []*relation.Relation) (*relation.Relation, error) {
	if len(aux) == 0 {
		return nil, fmt.Errorf("asr: BuildExtension: no auxiliary relations")
	}
	switch ext {
	case Canonical:
		return relation.JoinChain(relation.NaturalJoin, name, true, aux...)
	case Full:
		return relation.JoinChain(relation.FullOuterJoin, name, true, aux...)
	case LeftComplete:
		return relation.JoinChain(relation.LeftOuterJoin, name, true, aux...)
	case RightComplete:
		return relation.JoinChain(relation.RightOuterJoin, name, false, aux...)
	default:
		return nil, fmt.Errorf("asr: BuildExtension: unknown extension %v", ext)
	}
}

// extensionRows enumerates the logical extension of path over ob the
// paper's way, the only way this package does: the chosen join over the
// auxiliary relations.
func extensionRows(ob *gom.ObjectBase, path *gom.PathExpression, ext Extension) ([]relation.Tuple, error) {
	aux, err := BuildAuxiliaryRelations(ob, path)
	if err != nil {
		return nil, err
	}
	rel, err := BuildExtension(ext, "E_"+ext.String(), aux)
	if err != nil {
		return nil, err
	}
	return rel.Tuples(), nil
}
