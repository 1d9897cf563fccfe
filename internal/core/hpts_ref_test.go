package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/rat"
	"smallbuffers/internal/sim"
)

// refHPTS is a straight transcription of Algorithms 3–5 that re-classifies
// a node's packets with Hierarchy.Class on every pseudo-buffer query. It is
// the reference the production HPTS must match decision for decision.
type refHPTS struct {
	ell          int
	ablatePreBad bool
	h            *Hierarchy
	actLevel     []int
	actK         []int
}

func (p *refHPTS) attach(h *Hierarchy) {
	p.h = h
	p.actLevel = make([]int, h.N())
	p.actK = make([]int, h.N())
}

// dests returns the m intermediate destinations of I_{j,r} in increasing
// order.
func (p *refHPTS) dests(j, r int) []int {
	lo, _ := p.h.Interval(j, r)
	out := make([]int, p.h.M())
	for c := range out {
		out[c] = lo + c*p.h.Pow(j)
	}
	return out
}

// pseudo returns L_{j,k}(i) in arrival order.
func (p *refHPTS) pseudo(v sim.View, i, j, k int) []packet.Packet {
	var out []packet.Packet
	for _, pk := range v.Packets(network.NodeID(i)) {
		lvl, kk := p.h.Class(i, int(pk.Dst))
		if lvl == j && kk == k {
			out = append(out, pk)
		}
	}
	return out
}

func (p *refHPTS) decide(v sim.View) []sim.Forward {
	lambda := p.ell - 1 - v.Round()%p.ell
	for i := range p.actLevel {
		p.actLevel[i] = -1
	}
	for r := 0; r < p.h.IntervalCount(lambda); r++ {
		p.formPaths(v, lambda, r)
	}
	if !p.ablatePreBad {
		for j := lambda - 1; j >= 0; j-- {
			p.activatePreBad(v, j)
		}
	}
	var out []sim.Forward
	sent := make([]int, p.h.N()+1)
	for i := p.h.N() - 1; i >= 0; i-- {
		if p.actLevel[i] < 0 {
			continue
		}
		j, k := p.actLevel[i], p.actK[i]
		ps := p.pseudo(v, i, j, k)
		limit := v.Bandwidth(network.NodeID(i))
		ri, _, _ := p.h.IntervalOf(j, i)
		if wk := p.dests(j, ri)[k]; i+1 != wk {
			limit = min(limit, max(1, sent[i+1]))
		}
		n0 := len(out)
		out = appendLIFOTop(out, network.NodeID(i), ps, limit)
		sent[i] = len(out) - n0
	}
	return out
}

func (p *refHPTS) formPaths(v sim.View, lambda, r int) {
	lo, _ := p.h.Interval(lambda, r)
	dests := p.dests(lambda, r)
	m := p.h.M()
	frontier := dests[m-1]
	for k := m - 1; k >= 0; k-- {
		wk := dests[k]
		ik := -1
		for i := lo; i < frontier; i++ {
			if len(p.pseudo(v, i, lambda, k)) >= 2 {
				ik = i
				break
			}
		}
		if ik < 0 {
			continue
		}
		hi := frontier - 1
		if wk-1 < hi {
			hi = wk - 1
		}
		for i := ik; i <= hi; i++ {
			p.actLevel[i] = lambda
			p.actK[i] = k
		}
		frontier = ik
	}
}

func (p *refHPTS) activatePreBad(v sim.View, j int) {
	for r := 0; r < p.h.IntervalCount(j); r++ {
		a, b := p.h.Interval(j, r)
		if a == 0 || p.actLevel[a] >= 0 {
			continue
		}
		if p.actLevel[a-1] < 0 {
			continue
		}
		ps := p.pseudo(v, a-1, p.actLevel[a-1], p.actK[a-1])
		if len(ps) == 0 {
			continue
		}
		w := int(ps[len(ps)-1].Dst)
		if w == a {
			continue
		}
		if p.h.IntermediateDest(a-1, w) != a {
			continue
		}
		jNew, kNew := p.h.Class(a, w)
		if jNew != j || len(p.pseudo(v, a, jNew, kNew)) < 1 {
			continue
		}
		wk := p.h.IntermediateDest(a, w)
		if wk-1 > b {
			wk = b + 1
		}
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

// lockstepHPTS runs the production HPTS and the reference on the same view
// every round and fails the round on the first differing forward list.
type lockstepHPTS struct {
	*HPTS
	ref refHPTS
}

func (l *lockstepHPTS) Attach(nw *network.Network, bound adversary.Bound, dests []network.NodeID) error {
	if err := l.HPTS.Attach(nw, bound, dests); err != nil {
		return err
	}
	l.ref.attach(l.HPTS.Hierarchy())
	return nil
}

func (l *lockstepHPTS) Decide(v sim.View) ([]sim.Forward, error) {
	got, err := l.HPTS.Decide(v)
	if err != nil {
		return nil, err
	}
	if want := l.ref.decide(v); !slices.Equal(got, want) {
		return nil, fmt.Errorf("forward lists differ:\n got  %v\n want %v", got, want)
	}
	return got, nil
}

// TestHPTSMatchesReference runs HPTS in lockstep with the reference on
// random small instances: every base m ∈ {2,3,4} and level count
// ℓ ∈ {1,2,3}, burst σ ∈ {0..3}, link bandwidth B ∈ {1,2}, with and without
// ActivatePreBad, each against a random multi-destination adversary at
// either the Theorem 4.1 rate 1/ℓ or the overloading rate 1.
func TestHPTSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rounds := 240
	if testing.Short() {
		rounds = 60
	}
	for _, m := range []int{2, 3, 4} {
		for ell := 1; ell <= 3; ell++ {
			h, err := NewHierarchy(m, ell)
			if err != nil {
				t.Fatal(err)
			}
			n := h.N()
			for sigma := 0; sigma <= 3; sigma++ {
				for _, bw := range []int{1, 2} {
					for _, ablate := range []bool{false, true} {
						var dests []network.NodeID
						for w := 1; w < n; w++ {
							if rng.Intn(2) == 0 || w == n-1 {
								dests = append(dests, network.NodeID(w))
							}
						}
						// At σ = 0 only ρ = 1 admits any injection.
						rho := rat.New(1, int64(ell))
						if sigma == 0 || rng.Intn(2) == 0 {
							rho = rat.One
						}
						seed := rng.Int63()
						name := fmt.Sprintf("m=%d/ell=%d/sigma=%d/B=%d/ablate=%t/rho=%v", m, ell, sigma, bw, ablate, rho)
						t.Run(name, func(t *testing.T) {
							nw := network.MustPath(n, network.WithUniformBandwidth(bw))
							adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rho, Sigma: sigma}, dests, seed)
							if err != nil {
								t.Fatal(err)
							}
							var opts []HPTSOption
							if ablate {
								opts = append(opts, HPTSAblatePreBad())
							}
							p := &lockstepHPTS{HPTS: NewHPTS(ell, opts...), ref: refHPTS{ell: ell, ablatePreBad: ablate}}
							res, err := sim.Run(context.Background(), sim.NewSpec(nw, p, adv, rounds))
							if err != nil {
								t.Fatal(err)
							}
							if res.Injected == 0 {
								t.Fatal("adversary injected nothing; the comparison is vacuous")
							}
						})
					}
				}
			}
		}
	}
}

// TestHPTSCodeMatchesClass checks the digit-table classification against
// Hierarchy.Class for every node pair i < w.
func TestHPTSCodeMatchesClass(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5} {
		for ell := 1; ell <= 3; ell++ {
			h, err := NewHierarchy(m, ell)
			if err != nil {
				t.Fatal(err)
			}
			p := NewHPTS(ell)
			if err := p.Attach(network.MustPath(h.N()), adversary.Bound{}, nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < h.N(); i++ {
				for w := i + 1; w < h.N(); w++ {
					j, k := h.Class(i, w)
					if got := p.code(i, w); got != j*m+k {
						t.Fatalf("m=%d ℓ=%d: code(%d,%d) = %d, want %d·%d+%d", m, ell, i, w, got, j, m, k)
					}
				}
			}
		}
	}
}

// TestHPTSDecideAllocs pins the steady-state allocation count of Decide:
// at most one per round, the returned forward slice.
func TestHPTSDecideAllocs(t *testing.T) {
	nw := network.MustPath(256)
	var dests []network.NodeID
	for w := 1; w < nw.Len(); w++ {
		dests = append(dests, network.NodeID(w))
	}
	adv, err := adversary.NewRandom(nw, adversary.Bound{Rho: rat.New(1, 2), Sigma: 2}, dests, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := NewHPTS(2)
	eng, err := sim.NewEngine(sim.NewSpec(nw, p, adv, 400))
	if err != nil {
		t.Fatal(err)
	}
	// Measure every forwarding round after a warm-up, so both levels are
	// served and every scratch slice has reached its working size.
	measured := [2]int{}
	for r := 0; r < 400; r++ {
		if r >= 200 {
			if fwd, err := p.Decide(eng); err != nil {
				t.Fatal(err)
			} else if len(fwd) > 0 {
				measured[r%2]++
				if got := testing.AllocsPerRun(20, func() { p.Decide(eng) }); got > 1 {
					t.Fatalf("round %d: Decide makes %.1f allocations, want ≤ 1", r, got)
				}
			}
		}
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if measured[0] == 0 || measured[1] == 0 {
		t.Fatalf("forwarding rounds per level = %v; the measurement misses a level", measured)
	}
}
