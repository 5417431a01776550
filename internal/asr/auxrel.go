package asr

import (
	"fmt"

	"asr/internal/gom"
	"asr/internal/relation"
)

// BuildAuxiliaryRelations materializes E_0 … E_{n-1} for the path over
// the object base (Definition 3.3):
//
//   - For a single-valued A_j, E_{j-1} is binary and holds
//     (id(o_{j-1}), id(o_j)) for every o_{j-1} with o_{j-1}.A_j = o_j.
//     When t_j is atomic, id(o_j) is the attribute value itself.
//   - For a set-valued A_j, E_{j-1} is ternary and holds
//     (id(o_{j-1}), id(o'_j), id(o_j)) per set element, and
//     (id(o_{j-1}), id(o'_j), NULL) when the set is empty.
//
// Objects of subtypes of the domain type participate (strong typing with
// substitutability). Objects whose A_j is NULL contribute nothing.
func BuildAuxiliaryRelations(ob *gom.ObjectBase, path *gom.PathExpression) ([]*relation.Relation, error) {
	if ob == nil || path == nil {
		return nil, fmt.Errorf("asr: BuildAuxiliaryRelations: nil object base or path")
	}
	out := make([]*relation.Relation, 0, path.Len())
	for j := 1; j <= path.Len(); j++ {
		step := path.Step(j)
		var rel *relation.Relation
		name := fmt.Sprintf("E_%d", j-1)
		if step.IsSetOccurrence() {
			rel = relation.New(name,
				"OID_"+step.Domain.Name(), "OID_"+step.Set.Name(), colName(step.Range, step))
		} else {
			rel = relation.New(name, "OID_"+step.Domain.Name(), colName(step.Range, step))
		}
		var targets []gom.Value
		for _, id := range ob.Extent(step.Domain, true) {
			o, ok := ob.Get(id)
			if !ok {
				continue
			}
			var set gom.Value
			set, targets = o.Follow(step, targets[:0])
			switch {
			case !step.IsSetOccurrence():
				for _, v := range targets {
					rel.MustInsert(relation.Tuple{gom.Ref(id), v})
				}
			case set != nil && len(targets) == 0:
				rel.MustInsert(relation.Tuple{gom.Ref(id), set, nil})
			default:
				for _, e := range targets {
					rel.MustInsert(relation.Tuple{gom.Ref(id), set, e})
				}
			}
		}
		out = append(out, rel)
	}
	return out, nil
}

func colName(t *gom.Type, step gom.PathStep) string {
	if t.Kind() == gom.AtomicType {
		return "VALUE_" + step.Attr
	}
	return "OID_" + t.Name()
}
