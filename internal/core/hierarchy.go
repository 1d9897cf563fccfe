// Package core implements the paper's forwarding algorithms: PTS
// (Algorithm 1), PPTS (Algorithm 2), their directed-tree generalizations
// (Appendix B.2), and the hierarchical HPTS (Algorithms 3–5), together with
// the badness accounting (Definitions 3.3, 4.4–4.6) used by their analyses
// and by this repository's invariant checks.
package core

import (
	"fmt"

	"smallbuffers/internal/network"
)

// Hierarchy is the base-m positional structure over the line ⟨n⟩ with
// n = m^ℓ (§4.1): digits, the level-j partitions I_j, segments, and
// intermediate destinations. Level j ∈ ⟨ℓ⟩ partitions the line into
// m^(ℓ−j−1) intervals of size m^(j+1) each; within a level-j interval the m
// left endpoints of its level-(j−1) subintervals serve as intermediate
// destinations.
type Hierarchy struct {
	m, ell, n int
	// pow[j] = m^j for j ∈ [0, ℓ].
	pow []int
}

// NewHierarchy returns the hierarchy with m ≥ 2 digits and ℓ ≥ 1 levels
// over n = m^ℓ nodes.
func NewHierarchy(m, ell int) (*Hierarchy, error) {
	if m < 2 {
		return nil, fmt.Errorf("core: hierarchy needs base m ≥ 2, got %d", m)
	}
	if ell < 1 {
		return nil, fmt.Errorf("core: hierarchy needs ℓ ≥ 1 levels, got %d", ell)
	}
	pow := make([]int, ell+1)
	pow[0] = 1
	for j := 1; j <= ell; j++ {
		if pow[j-1] > (1<<30)/m {
			return nil, fmt.Errorf("core: hierarchy m=%d ℓ=%d overflows", m, ell)
		}
		pow[j] = pow[j-1] * m
	}
	return &Hierarchy{m: m, ell: ell, n: pow[ell], pow: pow}, nil
}

// HierarchyFor factors n as m^ℓ for the given ℓ and returns the hierarchy,
// or an error if n is not a perfect ℓ-th power ≥ 2^ℓ.
func HierarchyFor(n, ell int) (*Hierarchy, error) {
	if ell < 1 {
		return nil, fmt.Errorf("core: ℓ must be ≥ 1, got %d", ell)
	}
	if ell == 1 {
		if n < 2 {
			return nil, fmt.Errorf("core: need n ≥ 2, got %d", n)
		}
		return NewHierarchy(n, 1)
	}
	// Integer ℓ-th root by search.
	for m := 2; ; m++ {
		p := 1
		over := false
		for j := 0; j < ell; j++ {
			if p > n/m {
				over = true
				break
			}
			p *= m
		}
		if over || p > n {
			return nil, fmt.Errorf("core: n=%d is not a perfect ℓ=%d power", n, ell)
		}
		if p == n {
			return NewHierarchy(m, ell)
		}
	}
}

// M returns the base (digit range).
func (h *Hierarchy) M() int { return h.m }

// Levels returns ℓ, the number of levels.
func (h *Hierarchy) Levels() int { return h.ell }

// N returns the number of nodes m^ℓ.
func (h *Hierarchy) N() int { return h.n }

// Pow returns m^j for 0 ≤ j ≤ ℓ.
func (h *Hierarchy) Pow(j int) int { return h.pow[j] }

// Digit returns the j-th base-m digit of i.
func (h *Hierarchy) Digit(i, j int) int { return (i / h.pow[j]) % h.m }

// Level returns lv(i, w): the largest digit position in which i and w
// differ (Definition 4.2). It requires 0 ≤ i < w < n.
func (h *Hierarchy) Level(i, w int) int {
	for j := h.ell - 1; j >= 0; j-- {
		if h.Digit(i, j) != h.Digit(w, j) {
			return j
		}
	}
	return -1 // i == w; callers guarantee i < w
}

// IntermediateDest returns x(i, w) = ⌊w/m^j⌋·m^j where j = lv(i, w): the
// next intermediate destination of a packet at i headed for w
// (Definition 4.2). It requires i < w.
func (h *Hierarchy) IntermediateDest(i, w int) int {
	j := h.Level(i, w)
	return (w / h.pow[j]) * h.pow[j]
}

// IntervalCount returns |I_j| = m^(ℓ−j−1), the number of level-j intervals.
func (h *Hierarchy) IntervalCount(j int) int { return h.pow[h.ell-j-1] }

// Interval returns the bounds [lo, hi] (inclusive) of I_{j,r}, the r-th
// level-j interval: lo = r·m^(j+1), size m^(j+1).
func (h *Hierarchy) Interval(j, r int) (lo, hi int) {
	size := h.pow[j+1]
	lo = r * size
	return lo, lo + size - 1
}

// IntervalOf returns the index r and bounds of the level-j interval
// containing node i.
func (h *Hierarchy) IntervalOf(j, i int) (r, lo, hi int) {
	size := h.pow[j+1]
	r = i / size
	lo = r * size
	return r, lo, lo + size - 1
}

// Class returns the pseudo-buffer class of a packet currently at node i
// with final destination w (Definition 4.3): Major = segment level
// lv(i, w), Minor = the index k of the packet's level-j intermediate
// destination among its interval's destinations, which equals the j-th
// digit of w. It requires i < w.
func (h *Hierarchy) Class(i, w int) (level, k int) {
	j := h.Level(i, w)
	return j, h.Digit(w, j)
}

// Segment is one leg of a packet's virtual trajectory (Figure 1): the route
// from From to To at the given Level, where To is an intermediate (or the
// final) destination.
type Segment struct {
	From, To int
	Level    int
}

// Segments returns the virtual trajectory of a packet injected at i with
// destination w: segments at strictly decreasing levels whose last To is w
// (§4.1). It requires 0 ≤ i < w < n.
func (h *Hierarchy) Segments(i, w int) []Segment {
	var out []Segment
	for cur := i; cur < w; {
		j := h.Level(cur, w)
		x := (w / h.pow[j]) * h.pow[j]
		out = append(out, Segment{From: cur, To: x, Level: j})
		cur = x
	}
	return out
}

// Validate checks that the hierarchy matches the network: a path of
// exactly n = m^ℓ nodes.
func (h *Hierarchy) Validate(nw *network.Network) error {
	if !nw.IsPath() {
		return fmt.Errorf("core: hierarchy requires a path topology")
	}
	if nw.Len() != h.n {
		return fmt.Errorf("core: hierarchy over %d nodes, network has %d", h.n, nw.Len())
	}
	return nil
}
