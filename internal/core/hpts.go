package core

import (
	"fmt"
	"slices"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/buffer"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/sim"
)

// HPTS is Algorithm 3, "Hierarchical Peak-to-Sink" (§4), for a path of
// n = m^ℓ nodes and rates ρ·ℓ ≤ 1. The line is partitioned hierarchically
// (Hierarchy); each packet traverses segments of strictly decreasing level,
// and each buffer is split into ℓ·m pseudo-buffers indexed by (level,
// intermediate destination). The algorithm time-division multiplexes: at
// round t only level λ = t mod ℓ intervals run a PPTS-style activation
// (FormPaths, Algorithm 4), plus anticipatory activations at lower levels
// for packets about to switch level into an occupied pseudo-buffer
// (ActivatePreBad, Algorithm 5). Packets are accepted only at phase
// boundaries, i.e. the protocol plays against the ℓ-reduction of the
// adversary (Definition 2.4).
//
// Theorem 4.1: the maximum buffer occupancy is at most ℓ·n^(1/ℓ) + σ + 1.
//
// The theorem is stated for unit links. On capacitated links HPTS keeps
// its activation structure and lets each activated pseudo-buffer forward
// up to B(v) packets; B = 1 recovers the analyzed algorithm exactly, while
// B > 1 is a best-effort generalization (the phase-badness invariant of
// Lemma 4.8 is only proven at B = 1).
type HPTS struct {
	ell          int
	ablatePreBad bool
	h            *Hierarchy
	// digits[i·ℓ+j] is the j-th base-m digit of node i, so classifying a
	// packet compares two rows instead of dividing.
	digits []int32
	// scratch, reused across rounds:
	actLevel []int // per node: activated level, −1 = inactive
	actK     []int // per node: activated destination index
	// codes holds each buffered packet's class j·m+k (−1 if the packet sits
	// at its destination), node by node in arrival order; node i's codes
	// are codes[off[i]:off[i+1]].
	codes []int
	off   []int
	// firstBad[r·m+k] is the left-most node of the r-th level-λ interval
	// whose (λ,k)-pseudo-buffer holds ≥ 2 packets, or −1; seen[k] is the
	// last node found holding a (λ,k) packet while filling it.
	firstBad []int
	seen     []int
	sent     []int           // per node: packets forwarded this round
	ps       []packet.Packet // one pseudo-buffer, filtered from a node
	fwd      []sim.Forward   // this round's decisions; Decide returns a copy
}

var _ sim.Protocol = (*HPTS)(nil)
var _ sim.PhasedAcceptor = (*HPTS)(nil)

// HPTSOption configures HPTS.
type HPTSOption func(*HPTS)

// HPTSAblatePreBad disables the ActivatePreBad step (Algorithm 5). This is
// an ablation knob for experiments: without it, packets completing a
// segment can stack onto occupied lower-level pseudo-buffers and the phase
// badness invariant of Lemma 4.8 no longer holds.
func HPTSAblatePreBad() HPTSOption {
	return func(p *HPTS) { p.ablatePreBad = true }
}

// NewHPTS returns an HPTS instance with ℓ hierarchy levels. The attached
// network must be a path of exactly m^ℓ nodes for some integer m ≥ 2.
// With ℓ = 1, HPTS degenerates to PPTS over all potential destinations.
func NewHPTS(ell int, opts ...HPTSOption) *HPTS {
	p := &HPTS{ell: ell}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sim.Protocol.
func (p *HPTS) Name() string {
	if p.ablatePreBad {
		return fmt.Sprintf("HPTS(ℓ=%d,no-prebad)", p.ell)
	}
	return fmt.Sprintf("HPTS(ℓ=%d)", p.ell)
}

// PhaseLength implements sim.PhasedAcceptor: injections are accepted every
// ℓ rounds (the ℓ-reduction).
func (p *HPTS) PhaseLength() int { return p.ell }

// Hierarchy returns the attached hierarchy (nil before Attach).
func (p *HPTS) Hierarchy() *Hierarchy { return p.h }

// Attach implements sim.Protocol.
func (p *HPTS) Attach(nw *network.Network, bound adversary.Bound, _ []network.NodeID) error {
	h, err := HierarchyFor(nw.Len(), p.ell)
	if err != nil {
		return err
	}
	if err := h.Validate(nw); err != nil {
		return err
	}
	n := nw.Len()
	p.h = h
	p.digits = make([]int32, n*p.ell)
	for i := 0; i < n; i++ {
		for j := 0; j < p.ell; j++ {
			p.digits[i*p.ell+j] = int32(h.Digit(i, j))
		}
	}
	p.actLevel = make([]int, n)
	p.actK = make([]int, n)
	p.off = make([]int, n+1)
	p.firstBad = make([]int, n) // |I_0|·m = n entries cover every level
	p.seen = make([]int, h.M())
	p.sent = make([]int, n+1)
	// ρ·ℓ ≤ 1 is the premise of Theorem 4.1; running outside it is allowed
	// (the bound simply may not hold), so no error here.
	_ = bound
	return nil
}

// code returns the pseudo-buffer class j·m+k of a packet at node i headed
// for w, with (j, k) = Hierarchy.Class(i, w), or −1 if i = w.
func (p *HPTS) code(i, w int) int {
	di := p.digits[i*p.ell : (i+1)*p.ell]
	dw := p.digits[w*p.ell : (w+1)*p.ell]
	for j := p.ell - 1; j >= 0; j-- {
		if di[j] != dw[j] {
			return j*p.h.M() + int(dw[j])
		}
	}
	return -1
}

// classify walks every node's packets once: it records each packet's class
// code and, for the level λ served this round, the left-most bad
// pseudo-buffer of every (interval, destination index) pair.
func (p *HPTS) classify(v sim.View, lambda int) {
	m := p.h.M()
	size := p.h.Pow(lambda + 1)
	for k := range p.seen {
		p.seen[k] = -1
	}
	bad := p.firstBad[:p.h.IntervalCount(lambda)*m]
	for x := range bad {
		bad[x] = -1
	}
	p.codes = p.codes[:0]
	for i := 0; i < p.h.N(); i++ {
		p.off[i] = len(p.codes)
		for _, pk := range v.Packets(network.NodeID(i)) {
			c := p.code(i, int(pk.Dst))
			p.codes = append(p.codes, c)
			if c < 0 || c/m != lambda {
				continue
			}
			k := c % m
			if p.seen[k] != i {
				p.seen[k] = i
			} else if x := i/size*m + k; bad[x] < 0 {
				bad[x] = i
			}
		}
	}
	p.off[p.h.N()] = len(p.codes)
}

// pseudo returns L_{j,k}(i) for class code c = j·m+k: the packets at node i
// in that pseudo-buffer, in arrival order. The slice is scratch, valid until
// the next call.
func (p *HPTS) pseudo(v sim.View, i, c int) []packet.Packet {
	pkts := v.Packets(network.NodeID(i))
	p.ps = p.ps[:0]
	for x, cx := range p.codes[p.off[i]:p.off[i+1]] {
		if cx == c {
			p.ps = append(p.ps, pkts[x])
		}
	}
	return p.ps
}

// dest returns w_k of node i's level-j interval: lo + k·m^j.
func (p *HPTS) dest(i, j, k int) int {
	size := p.h.Pow(j + 1)
	return i/size*size + k*p.h.Pow(j)
}

// Decide implements sim.Protocol (Algorithm 3's forwarding step).
//
// Within a phase the levels run in decreasing order: the first round after
// acceptance serves level ℓ−1 and the last round serves level 0. Lemma 4.8's
// proof depends on this ("levels are activated in decreasing order over the
// course of a phase"): when forwarding replaces a bad packet at level λ with
// a bad packet at some level j < λ, the level-j round still lies ahead in
// the same phase and clears it, which is what makes the phase badness
// strictly decrease.
func (p *HPTS) Decide(v sim.View) ([]sim.Forward, error) {
	lambda := p.ell - 1 - v.Round()%p.ell
	p.classify(v, lambda)
	for i := range p.actLevel {
		p.actLevel[i] = -1
	}
	// Lines 6–8: FormPaths on every level-λ interval.
	for r := 0; r < p.h.IntervalCount(lambda); r++ {
		p.formPaths(lambda, r)
	}
	// Lines 9–11: anticipatory activation at lower levels.
	if !p.ablatePreBad {
		for j := lambda - 1; j >= 0; j-- {
			p.activatePreBad(v, j)
		}
	}
	// Line 12: every non-empty activated pseudo-buffer forwards. On
	// capacitated links rates follow the cascaded-rate discipline, computed
	// right to left: node i sends min(B(i), max(1, sent(i+1))), and the full
	// B(i) only when i+1 is the pseudo-buffer's own intermediate destination
	// (where its packets leave this pseudo-buffer system). B = 1 is the
	// paper's one-packet rule exactly; B > 1 is best-effort (see type doc).
	p.fwd = p.fwd[:0]
	for i := p.h.N() - 1; i >= 0; i-- {
		p.sent[i] = 0
		if p.actLevel[i] < 0 {
			continue
		}
		j, k := p.actLevel[i], p.actK[i]
		limit := v.Bandwidth(network.NodeID(i))
		if i+1 != p.dest(i, j, k) {
			limit = min(limit, max(1, p.sent[i+1]))
		}
		n0 := len(p.fwd)
		p.fwd = appendLIFOTop(p.fwd, network.NodeID(i), p.pseudo(v, i, j*p.h.M()+k), limit)
		p.sent[i] = len(p.fwd) - n0
	}
	if len(p.fwd) == 0 {
		return nil, nil
	}
	return slices.Clone(p.fwd), nil
}

// formPaths is Algorithm 4 on interval I_{λ,r}: a PPTS sweep over the
// interval's m intermediate destinations w_k = lo + k·m^λ.
func (p *HPTS) formPaths(lambda, r int) {
	m, step := p.h.M(), p.h.Pow(lambda)
	lo, _ := p.h.Interval(lambda, r)
	bad := p.firstBad[r*m : (r+1)*m]
	frontier := lo + (m-1)*step // Algorithm 4 line 2: i′ ← w_{m−1}
	for k := m - 1; k >= 0; k-- {
		// Left-most bad (λ,k)-pseudo-buffer strictly left of the frontier.
		ik := bad[k]
		if ik < 0 || ik >= frontier {
			continue
		}
		hi := min(frontier, lo+k*step) - 1
		for i := ik; i <= hi; i++ {
			p.actLevel[i] = lambda
			p.actK[i] = k
		}
		frontier = ik
	}
}

// activatePreBad is Algorithm 5 at level j: for each level-j interval whose
// left endpoint a is about to receive a packet P that completes its segment
// at a, re-enters at level j, and would land on an occupied pseudo-buffer
// (Definition 4.6), activate the chain of (j, k)-pseudo-buffers from a up
// to P's level-j intermediate destination or the first active node.
func (p *HPTS) activatePreBad(v sim.View, j int) {
	m := p.h.M()
	for r := 0; r < p.h.IntervalCount(j); r++ {
		a, _ := p.h.Interval(j, r)
		if a == 0 || p.actLevel[a] >= 0 {
			continue // no upstream neighbor, or a already active
		}
		// The unique active pseudo-buffer of node a−1, if any, sends its
		// LIFO top this round.
		jOld, kOld := p.actLevel[a-1], p.actK[a-1]
		if jOld < 0 {
			continue
		}
		ps := p.pseudo(v, a-1, jOld*m+kOld)
		if len(ps) == 0 {
			continue
		}
		w := int(ps[len(ps)-1].Dst)
		if w == a {
			continue // delivered on arrival, cannot become bad
		}
		// P completes its current segment exactly at a?
		if p.dest(a-1, jOld, kOld) != a {
			continue
		}
		// P's new level at a must be this j, and its new pseudo-buffer
		// occupied (pre-bad).
		c := p.code(a, w)
		if c/m != j || !slices.Contains(p.codes[p.off[a]:p.off[a+1]], c) {
			continue
		}
		// Chain [a, wEnd]: maximal inactive prefix up to w_k − 1, where w_k
		// is the packet's level-j intermediate destination. The chain must
		// not claim w_k itself: its (j,k)-pseudo-buffer is empty (packets
		// switch level on arrival), and marking it active would block the
		// cascaded pre-bad activation of the next interval (the event-(a)
		// chain of Claim 2).
		kNew := c % m
		wk := a + kNew*p.h.Pow(j) // a is the interval's left endpoint
		wEnd := a - 1
		for i := a; i <= wk-1; i++ {
			if p.actLevel[i] >= 0 {
				break
			}
			wEnd = i
		}
		for i := a; i <= wEnd; i++ {
			p.actLevel[i] = j
			p.actK[i] = kNew
		}
	}
}

// HPTSClassifier returns a buffer.Classifier assigning packets at node i to
// their (level, destination-index) pseudo-buffer, for badness accounting.
func HPTSClassifier(h *Hierarchy, i network.NodeID) buffer.Classifier {
	return func(p packet.Packet) buffer.Class {
		j, k := h.Class(int(i), int(p.Dst))
		return buffer.Class{Major: j, Minor: k}
	}
}

// HPTSSpaceBound returns the Theorem 4.1 bound ℓ·n^(1/ℓ) + σ + 1 = ℓ·m+σ+1.
func HPTSSpaceBound(h *Hierarchy, sigma int) int {
	return h.Levels()*h.M() + sigma + 1
}
