package costmodel

import (
	"fmt"
	"math"
)

// Extension selects how much (partial) path information an access
// support relation keeps (§3); package asr builds relations in these
// same four values (asr.Extension is an alias).
type Extension int

// The four extensions of §3.
const (
	Canonical Extension = iota
	Full
	LeftComplete
	RightComplete
)

// Extensions lists all four for sweeps.
var Extensions = []Extension{Canonical, Full, LeftComplete, RightComplete}

// String names the extension as the paper abbreviates it.
func (e Extension) String() string {
	switch e {
	case Canonical:
		return "can"
	case Full:
		return "full"
	case LeftComplete:
		return "left"
	case RightComplete:
		return "right"
	default:
		return fmt.Sprintf("Extension(%d)", int(e))
	}
}

// Cardinality returns #E^{i,j}_X, the expected tuple count of the
// partition over positions [i, j] of the access support relation in
// extension X (§4.2). The undecomposed relation is the partition (0, n).
func (m *Model) Cardinality(x Extension, i, j int) float64 {
	if i < 0 || j > m.N || i >= j {
		return 0
	}
	switch x {
	case Canonical:
		// #E^{i,j}_can = P_RefBy(0,i) · path(i,j) · P_Ref(j,n)  (§4.2.1)
		return m.PRefBy(0, i) * m.Path(i, j) * m.PRef(j, m.N)
	case Full:
		// §4.2.2: sum over all segment lengths k and start positions l.
		total := 0.0
		for k := 1; k <= j-i; k++ {
			for l := i; l <= j-k; l++ {
				total += m.PLb(max(i, l-1), l) *
					m.Path(l, l+k) *
					m.PRb(l+k, min(j, l+k+1))
			}
		}
		return total
	case LeftComplete:
		// §4.2.3.
		total := 0.0
		for k := 1; k <= j-i; k++ {
			total += m.PRefBy(0, i) * m.Path(i, i+k) * m.PRb(i+k, min(j, i+k+1))
		}
		return total
	case RightComplete:
		// §4.2.4.
		total := 0.0
		for k := 1; k <= j-i; k++ {
			total += m.PLb(max(i, j-k-1), j-k) * m.Path(j-k, j) * m.PRef(j, m.N)
		}
		return total
	default:
		return 0
	}
}

// Ats returns ats^{i,j} = OIDsize·(j−i+1), the tuple size in bytes
// (eq. 13).
func (m *Model) Ats(i, j int) float64 {
	return m.Sys.OIDSize * float64(j-i+1)
}

// Atpp returns atpp^{i,j} = ⌊PageSize/ats⌋, the tuples per page
// (eq. 14).
func (m *Model) Atpp(i, j int) float64 {
	return math.Floor(m.Sys.PageSize / m.Ats(i, j))
}

// As returns as^{i,j}_X = #E·ats, the partition size in bytes (eq. 15).
func (m *Model) As(x Extension, i, j int) float64 {
	return m.Cardinality(x, i, j) * m.Ats(i, j)
}

// Ap returns ap^{i,j}_X = ⌈#E/atpp⌉, the data pages of the partition
// (eq. 16).
func (m *Model) Ap(x Extension, i, j int) float64 {
	atpp := m.Atpp(i, j)
	if atpp <= 0 {
		return 0
	}
	return math.Ceil(m.Cardinality(x, i, j) / atpp)
}

// StorageSize returns the total bytes of the relation in extension x
// under decomposition dec (non-redundant representation, as in §4.4's
// size comparisons — the two clustered B⁺-tree copies of §5 double it).
func (m *Model) StorageSize(x Extension, dec Decomposition) float64 {
	total := 0.0
	for p := 0; p < dec.NumPartitions(); p++ {
		i, j := dec.Partition(p)
		total += m.As(x, i, j)
	}
	return total
}

// StoragePages returns the total data pages analogously.
func (m *Model) StoragePages(x Extension, dec Decomposition) float64 {
	total := 0.0
	for p := 0; p < dec.NumPartitions(); p++ {
		i, j := dec.Partition(p)
		total += m.Ap(x, i, j)
	}
	return total
}
