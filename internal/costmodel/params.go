// Package costmodel implements the paper's complete analytical cost
// model (Kemper & Moerkotte, "Access Support in Object Bases", §4–§6):
// application and system parameters with their derived quantities
// (Figure 3, eqs. 1–10), access-support-relation cardinalities for every
// extension and decomposition (§4.2), storage costs (eqs. 13–16), query
// costs with and without access support via Yao's function (§5.5–5.8),
// maintenance costs for the characteristic update ins_i (§6.1–6.2), and
// weighted operation mixes (§6.4). The original is a Lisp program the
// authors never published; this package is a formula-by-formula
// transcription from the text, with the handful of obvious typos
// corrected as documented in DESIGN.md.
//
// Following the paper's simplification ("the analytical cost model
// captures the general case if one reads n as m", §3), positions here
// are object steps 0..n — set-object identifier columns are assumed
// dropped (no set sharing).
package costmodel

import (
	"fmt"
	"math"
)

// SystemParams are the paper's system-specific parameters (Figure 3).
type SystemParams struct {
	PageSize float64 // net page size in bytes
	OIDSize  float64 // stored object identifier size
	PPSize   float64 // page pointer size
}

// DefaultSystem returns the paper's values: 4056-byte pages, 8-byte
// OIDs, 4-byte page pointers.
func DefaultSystem() SystemParams {
	return SystemParams{PageSize: 4056, OIDSize: 8, PPSize: 4}
}

// BTreeFan returns the B⁺-tree fan-out ⌊PageSize/(PPsize+OIDsize)⌋.
func (s SystemParams) BTreeFan() float64 {
	return math.Floor(s.PageSize / (s.PPSize + s.OIDSize))
}

// Profile is the application-specific characterization of Figure 3 for a
// path t_0.A_1.….A_n.
type Profile struct {
	// N is the path length n.
	N int
	// C[i] is c_i, the number of objects of type t_i (len n+1).
	C []float64
	// D[i] is d_i, the number of t_i objects with defined A_{i+1}
	// (len n; a trailing n+1-th entry, the paper's "—", is tolerated and
	// ignored).
	D []float64
	// Fan[i] is fan_i, the average reference count of A_{i+1} (len n,
	// trailing entry tolerated).
	Fan []float64
	// Size[i] is size_i, the average object size in bytes (len n+1).
	// Needed only for non-supported query costs; may be nil otherwise.
	Size []float64
	// Shar optionally overrides shar_i (len n). When nil the paper's
	// default shar_i = d_i·fan_i / c_{i+1} is derived.
	Shar []float64
}

// Model precomputes every derived quantity of §4.1 for a profile and
// answers all cost queries. Create one with New.
type Model struct {
	Sys SystemParams

	N    int
	C    []float64 // c_0..c_n
	D    []float64 // d_0..d_{n-1}
	Fan  []float64 // fan_0..fan_{n-1}
	Size []float64 // size_0..size_n (zeros when absent)

	Shar   []float64 // shar_0..shar_{n-1} (eq. in Fig. 3)
	E      []float64 // e_1..e_n at indexes 1..n; E[0] = c_0 by convention
	PA     []float64 // P_A_i = d_i/c_i for i = 0..n-1 (eq. 1)
	PH     []float64 // P_H_i = e_i/c_i for i = 1..n (eq. 2)
	RefCnt []float64 // ref_i = d_i·fan_i for i = 0..n-1
	Spread []float64 // spread_i = d_i/e_{i+1} for i = 0..n-1

	Warnings []string
}

// New validates and derives a model. Inconsistent inputs (d_i > c_i,
// e_i > c_i) are clamped with a recorded warning rather than rejected,
// because the paper's own §5.9.1 profile contains such a slip.
func New(sys SystemParams, p Profile) (*Model, error) {
	n := p.N
	if n < 1 {
		return nil, fmt.Errorf("costmodel: path length n = %d, want ≥ 1", n)
	}
	if len(p.C) != n+1 {
		return nil, fmt.Errorf("costmodel: len(C) = %d, want n+1 = %d", len(p.C), n+1)
	}
	if len(p.D) != n && len(p.D) != n+1 {
		return nil, fmt.Errorf("costmodel: len(D) = %d, want n = %d", len(p.D), n)
	}
	if len(p.Fan) != n && len(p.Fan) != n+1 {
		return nil, fmt.Errorf("costmodel: len(Fan) = %d, want n = %d", len(p.Fan), n)
	}
	if p.Shar != nil && len(p.Shar) < n {
		return nil, fmt.Errorf("costmodel: len(Shar) = %d, want n = %d", len(p.Shar), n)
	}
	if p.Size != nil && len(p.Size) != n+1 {
		return nil, fmt.Errorf("costmodel: len(Size) = %d, want n+1 = %d", len(p.Size), n+1)
	}
	m := &Model{
		Sys: sys,
		N:   n,
		C:   append([]float64(nil), p.C[:n+1]...),
		D:   append([]float64(nil), p.D[:n]...),
		Fan: append([]float64(nil), p.Fan[:n]...),
	}
	if p.Size != nil {
		m.Size = append([]float64(nil), p.Size...)
	} else {
		m.Size = make([]float64, n+1)
	}
	for i := 0; i <= n; i++ {
		if m.C[i] <= 0 {
			return nil, fmt.Errorf("costmodel: c_%d = %g, want > 0", i, m.C[i])
		}
	}
	for i := 0; i < n; i++ {
		if m.D[i] < 0 || m.Fan[i] < 0 {
			return nil, fmt.Errorf("costmodel: negative d_%d or fan_%d", i, i)
		}
		if m.D[i] > m.C[i] {
			m.Warnings = append(m.Warnings,
				fmt.Sprintf("d_%d = %g exceeds c_%d = %g; clamped", i, m.D[i], i, m.C[i]))
			m.D[i] = m.C[i]
		}
	}

	// shar_i: user override or normal-distribution default (Fig. 3),
	// floored at 1 — an object that is referenced at all has at least one
	// referencer, so average sharing below 1 would make e_i exceed the
	// actual reference count. Without this floor the default sharing
	// yields e_i = c_{i+1} for every under-referenced level, no partial
	// paths can exist, and the published Figure 4/14 shapes (can/left ≪
	// right/full, left/full break-even) are unreproducible; the paper's
	// Lisp program evidently floored it too.
	m.Shar = make([]float64, n)
	for i := 0; i < n; i++ {
		if p.Shar != nil && p.Shar[i] > 0 {
			m.Shar[i] = p.Shar[i]
		} else if m.C[i+1] > 0 {
			m.Shar[i] = math.Max(1, m.D[i]*m.Fan[i]/m.C[i+1])
		}
	}

	// e_i = d_{i-1}·fan_{i-1} / shar_{i-1} (Fig. 3). Only the hard bound
	// e_i ≤ c_i is enforced: with the default shar the paper's formula
	// yields e_i = c_{i+1} even when fewer references exist, and we keep
	// that behaviour for fidelity with the published curves.
	m.E = make([]float64, n+1)
	m.E[0] = m.C[0]
	for i := 1; i <= n; i++ {
		if m.Shar[i-1] > 0 {
			m.E[i] = m.D[i-1] * m.Fan[i-1] / m.Shar[i-1]
		}
		if m.E[i] > m.C[i] {
			m.Warnings = append(m.Warnings,
				fmt.Sprintf("e_%d = %g exceeds c_%d = %g; clamped", i, m.E[i], i, m.C[i]))
			m.E[i] = m.C[i]
		}
	}

	m.PA = make([]float64, n)
	m.RefCnt = make([]float64, n)
	m.Spread = make([]float64, n)
	for i := 0; i < n; i++ {
		m.PA[i] = clamp01(m.D[i] / m.C[i])
		m.RefCnt[i] = m.D[i] * m.Fan[i]
		if m.E[i+1] > 0 {
			m.Spread[i] = m.D[i] / m.E[i+1]
		}
	}
	m.PH = make([]float64, n+1)
	for i := 1; i <= n; i++ {
		m.PH[i] = clamp01(m.E[i] / m.C[i])
	}
	return m, nil
}

// Opp returns opp_i = ⌊PageSize/size_i⌋, the objects per page (eq. 17).
func (m *Model) Opp(i int) float64 {
	if m.Size[i] <= 0 {
		return 0
	}
	return math.Floor(m.Sys.PageSize / m.Size[i])
}

// Op returns op_i = ⌈c_i/opp_i⌉, the pages storing all t_i objects
// under type clustering (eq. 18).
func (m *Model) Op(i int) float64 {
	opp := m.Opp(i)
	if opp <= 0 {
		return 0
	}
	return math.Ceil(m.C[i] / opp)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// pow computes base^exp with the base clamped into [0,1] — the paper's
// probability powers must stay probabilities even when parameter ratios
// exceed one (large fan-outs against few objects).
func pow(base, exp float64) float64 {
	return math.Pow(clamp01(base), math.Max(exp, 0))
}
