package costmodel

import "fmt"

// Decomposition is a boundary list (0 = i_0 < i_1 < … < i_k = n) over
// the path positions 0..n (Definition 3.8, read with the paper's
// no-set-sharing simplification so positions equal relation columns).
type Decomposition []int

// NoDecomposition is the single-partition decomposition (0, n).
func NoDecomposition(n int) Decomposition { return Decomposition{0, n} }

// BinaryDecomposition is (0, 1, …, n).
func BinaryDecomposition(n int) Decomposition {
	d := make(Decomposition, n+1)
	for i := range d {
		d[i] = i
	}
	return d
}

// NumPartitions returns the partition count.
func (d Decomposition) NumPartitions() int { return len(d) - 1 }

// Partition returns the position bounds (i, j) of partition p.
func (d Decomposition) Partition(p int) (i, j int) { return d[p], d[p+1] }

// String renders the paper's (0, i_1, …, n) notation.
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

// EnumerateDecompositions yields all 2^(n-1) decompositions of a length-n
// path, in a deterministic order.
func EnumerateDecompositions(n int) []Decomposition {
	if n < 1 {
		return nil
	}
	out := make([]Decomposition, 0, 1<<uint(n-1))
	for mask := 0; mask < 1<<uint(n-1); mask++ {
		d := Decomposition{0}
		for b := 1; b < n; b++ {
			if mask&(1<<uint(b-1)) != 0 {
				d = append(d, b)
			}
		}
		d = append(d, n)
		out = append(out, d)
	}
	return out
}
