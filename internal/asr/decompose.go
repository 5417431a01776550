package asr

import (
	"fmt"

	"asr/internal/relation"
)

// Decomposition is a list of column boundaries (0 = i_0 < i_1 < … < i_k
// = m) over the m+1 relation columns (Definition 3.8). Consecutive
// boundaries delimit one partition [S_{i_j} … S_{i_{j+1}}]; adjacent
// partitions share their boundary column, which is what makes the
// decomposition lossless (Theorem 3.9).
type Decomposition []int

// NoDecomposition keeps the relation in one piece: (0, m).
func NoDecomposition(m int) Decomposition { return Decomposition{0, m} }

// BinaryDecomposition splits into binary partitions: (0, 1, …, m).
func BinaryDecomposition(m int) Decomposition {
	d := make(Decomposition, m+1)
	for i := range d {
		d[i] = i
	}
	return d
}

// ParseDecomposition parses the operator spelling of the two standard
// decompositions of a relation of arity m+1: "binary" or "none".
func ParseDecomposition(s string, m int) (Decomposition, error) {
	switch s {
	case "binary":
		return BinaryDecomposition(m), nil
	case "none":
		return NoDecomposition(m), nil
	default:
		return nil, fmt.Errorf("asr: decomposition %q, want binary|none", s)
	}
}

// Validate checks the boundary conditions of Definition 3.8 against a
// relation of arity m+1.
func (d Decomposition) Validate(m int) error {
	if len(d) < 2 {
		return fmt.Errorf("asr: decomposition %v: need at least two boundaries", d)
	}
	if d[0] != 0 {
		return fmt.Errorf("asr: decomposition %v: must start at column 0", d)
	}
	if d[len(d)-1] != m {
		return fmt.Errorf("asr: decomposition %v: must end at column %d", d, m)
	}
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			return fmt.Errorf("asr: decomposition %v: boundaries must strictly increase", d)
		}
	}
	return nil
}

// NumPartitions returns the partition count k.
func (d Decomposition) NumPartitions() int { return len(d) - 1 }

// Partition returns the column bounds [lo, hi] of partition p.
func (d Decomposition) Partition(p int) (lo, hi int) { return d[p], d[p+1] }

// String renders the decomposition in the paper's (0, i_1, …, m)
// notation.
func (d Decomposition) String() string {
	s := "("
	for i, b := range d {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprint(b)
	}
	return s + ")"
}

// Decompose materializes the partitions of rel under d by projection
// (Definition 3.8). Projected rows that are entirely NULL are dropped —
// they describe no path segment.
func Decompose(rel *relation.Relation, d Decomposition) ([]*relation.Relation, error) {
	m := rel.Arity() - 1
	if err := d.Validate(m); err != nil {
		return nil, err
	}
	parts := make([]*relation.Relation, d.NumPartitions())
	for p := range parts {
		lo, hi := d.Partition(p)
		proj, err := rel.Project(fmt.Sprintf("%s^%d,%d", rel.Name(), lo, hi), lo, hi)
		if err != nil {
			return nil, err
		}
		parts[p] = proj
	}
	return parts, nil
}

// Recompose joins the partitions back together with full outer joins on
// their shared boundary columns and drops all-NULL artifacts. For
// partitions obtained from a well-formed access support relation this
// reconstructs the original extension exactly (Theorem 3.9) — the
// property tests verify it on arbitrary object bases.
func Recompose(name string, parts []*relation.Relation) (*relation.Relation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("asr: Recompose: no partitions")
	}
	acc := parts[0].Clone(name)
	var err error
	for _, p := range parts[1:] {
		acc, err = relation.Join(relation.FullOuterJoin, name, acc, p)
		if err != nil {
			return nil, err
		}
	}
	out := relation.New(name, acc.Columns()...)
	acc.Each(func(t relation.Tuple) bool {
		if !t.IsAllNull() {
			out.MustInsert(t)
		}
		return true
	})
	return out, nil
}
