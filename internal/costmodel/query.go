package costmodel

import (
	"fmt"
	"math"
)

// B⁺-tree shape quantities (eqs. 19–28) and query costs (§5.6–5.8).

// Ht returns ht^{i,j}_X: the height of the B⁺-tree over partition (i,j),
// not counting the leaf (data) level (eq. 19), at least 1.
func (m *Model) Ht(x Extension, i, j int) float64 {
	ap := m.Ap(x, i, j)
	fan := m.Sys.BTreeFan()
	if ap <= 1 || fan <= 1 {
		return 1
	}
	return math.Max(1, math.Ceil(math.Log(ap)/math.Log(fan)))
}

// Pg returns pg^{i,j}_X: the number of non-leaf pages of the B⁺-tree
// (eq. 20). The paper states the cases ht ≤ 1 and ht = 2; the natural
// generalization Σ_{l=1}^{ht} ⌈ap/fan^l⌉ coincides with both and is used
// here.
func (m *Model) Pg(x Extension, i, j int) float64 {
	ap := m.Ap(x, i, j)
	fan := m.Sys.BTreeFan()
	ht := m.Ht(x, i, j)
	if ap <= 0 {
		return 1
	}
	total := 0.0
	div := fan
	for l := 1.0; l <= ht; l++ {
		total += math.Ceil(ap / div)
		div *= fan
	}
	return math.Max(total, 1)
}

// Nlp returns nlp^{i,j}_X: leaf (data) pages per clustered value of the
// forward tree (eqs. 21–24, with the eq. 23 ref→Ref correction).
func (m *Model) Nlp(x Extension, i, j int) float64 {
	as := m.As(x, i, j)
	var distinct float64
	switch x {
	case Full, RightComplete:
		distinct = m.D[i] // eqs. 21–22
	case Canonical:
		distinct = m.Ref(i, m.N) * m.PRefBy(0, i) // eq. 23
	case LeftComplete:
		distinct = m.RefBy(0, i) // eq. 24
	}
	if distinct <= 0 {
		return 0
	}
	return math.Ceil(as / (m.Sys.PageSize * distinct))
}

// Rnlp returns Rnlp^{i,j}_X: leaf pages per clustered value of the
// reverse (last-column-clustered) tree (eqs. 25–28; the obvious e_i→e_j
// and as_right→as_left slips corrected).
func (m *Model) Rnlp(x Extension, i, j int) float64 {
	as := m.As(x, i, j)
	var distinct float64
	switch x {
	case Full, LeftComplete:
		distinct = m.E[j] // eqs. 25–26
	case Canonical:
		distinct = m.Ref(j, m.N) * m.PRefBy(0, j) // eq. 27
	case RightComplete:
		distinct = m.Ref(j, m.N) // eq. 28
	}
	if distinct <= 0 {
		return 0
	}
	return math.Ceil(as / (m.Sys.PageSize * distinct))
}

// QueryKind distinguishes forward from backward queries (§5.1).
type QueryKind int

// The two abstract query forms Q_{i,j}(fw) and Q_{i,j}(bw).
const (
	Forward QueryKind = iota
	Backward
)

// String names the kind.
func (k QueryKind) String() string {
	if k == Forward {
		return "fw"
	}
	return "bw"
}

// QnasForward is Qnas^{i,j}(fw) (eq. 31): one page access for the anchor
// object plus accesses to every object on a path from it. Spans of zero
// length cost nothing.
func (m *Model) QnasForward(i, j int) float64 {
	if j <= i {
		return 0
	}
	total := 1.0
	for l := i + 1; l < j; l++ {
		total += Yao(m.RefByK(i, l, 1), m.Op(l), m.C[l])
	}
	return total
}

// QnasBackward is Qnas^{i,j}(bw) (eq. 32): exhaustive search — all t_i
// pages plus every object of the intermediate types connected to t_i.
func (m *Model) QnasBackward(i, j int) float64 {
	if j <= i {
		return 0
	}
	total := m.Op(i)
	for l := i + 1; l < j; l++ {
		total += Yao(math.Ceil(m.RefByK(i, l, m.D[i])), m.Op(l), m.C[l])
	}
	return total
}

// Qnas dispatches on kind.
func (m *Model) Qnas(kind QueryKind, i, j int) float64 {
	if kind == Forward {
		return m.QnasForward(i, j)
	}
	return m.QnasBackward(i, j)
}

// QsupForward is Qsup^{i,j}_X(fw, dec) (eq. 33): the supported forward
// query cost. The three sums are (1) the partition whose left border is
// i — one tree descent plus the clustered leaf pages of one value; (2) a
// partition containing i strictly inside — a full partition scan; (3)
// every partition whose left border lies strictly between i and j — the
// root, the touched interior pages, and the touched leaf clusters, all
// via Yao.
func (m *Model) QsupForward(x Extension, i, j int, dec Decomposition) float64 {
	total := 0.0
	for p := 0; p < dec.NumPartitions(); p++ {
		iv, iv1 := dec.Partition(p)
		switch {
		case iv == i && i < iv1:
			total += m.Ht(x, iv, iv1) + m.Nlp(x, iv, iv1)
		case iv < i && i < iv1:
			total += m.Ap(x, iv, iv1)
		case i < iv && iv < j:
			r := math.Ceil(m.RefByK(i, iv, 1))
			pg := m.Pg(x, iv, iv1)
			total += 1 +
				Yao(r, pg-1, (pg-1)*m.Sys.BTreeFan()) +
				Yao(r*m.Nlp(x, iv, iv1), m.Ap(x, iv, iv1), m.Cardinality(x, iv, iv1))
		}
	}
	return total
}

// QsupBackward is Qsup^{i,j}_X(bw, dec) (eq. 34), the mirror image using
// the reverse-clustered trees.
func (m *Model) QsupBackward(x Extension, i, j int, dec Decomposition) float64 {
	total := 0.0
	for p := 0; p < dec.NumPartitions(); p++ {
		iv, iv1 := dec.Partition(p)
		switch {
		case iv < j && j == iv1:
			total += m.Ht(x, iv, iv1) + m.Rnlp(x, iv, iv1)
		case iv < j && j < iv1:
			total += m.Ap(x, iv, iv1)
		case i < iv1 && iv1 < j:
			r := math.Ceil(m.RefK(iv1, j, 1))
			pg := m.Pg(x, iv, iv1)
			total += 1 +
				Yao(r, pg-1, (pg-1)*m.Sys.BTreeFan()) +
				Yao(r*m.Rnlp(x, iv, iv1), m.Ap(x, iv, iv1), m.Cardinality(x, iv, iv1))
		}
	}
	return total
}

// Qsup dispatches on kind.
func (m *Model) Qsup(x Extension, kind QueryKind, i, j int, dec Decomposition) float64 {
	if kind == Forward {
		return m.QsupForward(x, i, j, dec)
	}
	return m.QsupBackward(x, i, j, dec)
}

// Supported reports whether an access support relation in extension x
// over a path of length n can evaluate a query spanning object steps
// i..j (0 ≤ i < j ≤ n), per the usability rules of §5.3 / eq. (35):
// canonical supports only complete spans, left-complete requires i = 0,
// right-complete requires j = n, and full supports everything.
func Supported(x Extension, n, i, j int) bool {
	if i < 0 || j > n || i >= j {
		return false
	}
	switch x {
	case Canonical:
		return i == 0 && j == n
	case Full:
		return true
	case LeftComplete:
		return i == 0
	case RightComplete:
		return j == n
	default:
		return false
	}
}

// Q is the general query cost Q^{i,j}_X(kind, dec) (eq. 35): the
// supported cost when the extension can evaluate the span, otherwise the
// non-supported cost.
func (m *Model) Q(x Extension, kind QueryKind, i, j int, dec Decomposition) float64 {
	if Supported(x, m.N, i, j) {
		return m.Qsup(x, kind, i, j, dec)
	}
	return m.Qnas(kind, i, j)
}

// QueryName renders Q_{i,j}(kind) for reports.
func QueryName(kind QueryKind, i, j int) string {
	return fmt.Sprintf("Q%d,%d(%s)", i, j, kind)
}
