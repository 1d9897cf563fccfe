package core

import (
	"testing"
	"testing/quick"

	"smallbuffers/internal/network"
)

func mustHierarchy(t *testing.T, m, ell int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(m, ell)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHierarchyValidation(t *testing.T) {
	tests := []struct {
		m, ell int
		ok     bool
	}{
		{2, 1, true},
		{2, 4, true},
		{3, 3, true},
		{16, 1, true},
		{1, 2, false},
		{0, 2, false},
		{2, 0, false},
		{2, -1, false},
		{2, 40, false}, // overflow
	}
	for _, tt := range tests {
		_, err := NewHierarchy(tt.m, tt.ell)
		if (err == nil) != tt.ok {
			t.Errorf("NewHierarchy(%d,%d) err=%v, want ok=%v", tt.m, tt.ell, err, tt.ok)
		}
	}
}

func TestHierarchyFor(t *testing.T) {
	tests := []struct {
		n, ell int
		m      int
		ok     bool
	}{
		{16, 4, 2, true},
		{16, 2, 4, true},
		{27, 3, 3, true},
		{16, 1, 16, true},
		{12, 2, 0, false},
		{16, 3, 0, false},
		{1, 1, 0, false},
		{8, 0, 0, false},
	}
	for _, tt := range tests {
		h, err := HierarchyFor(tt.n, tt.ell)
		if (err == nil) != tt.ok {
			t.Errorf("HierarchyFor(%d,%d) err=%v, want ok=%v", tt.n, tt.ell, err, tt.ok)
			continue
		}
		if tt.ok && h.M() != tt.m {
			t.Errorf("HierarchyFor(%d,%d).M = %d, want %d", tt.n, tt.ell, h.M(), tt.m)
		}
	}
}

// TestFigure1Partition checks the exact structure of Figure 1: n = 16,
// m = 2, ℓ = 4.
func TestFigure1Partition(t *testing.T) {
	h := mustHierarchy(t, 2, 4)
	if h.N() != 16 {
		t.Fatalf("N = %d, want 16", h.N())
	}
	// Level 3: one interval covering the whole line.
	if got := h.IntervalCount(3); got != 1 {
		t.Errorf("level 3 interval count = %d, want 1", got)
	}
	if lo, hi := h.Interval(3, 0); lo != 0 || hi != 15 {
		t.Errorf("I_{3,0} = [%d,%d], want [0,15]", lo, hi)
	}
	// Level 0: eight intervals of two nodes each.
	if got := h.IntervalCount(0); got != 8 {
		t.Errorf("level 0 interval count = %d, want 8", got)
	}
	if lo, hi := h.Interval(0, 3); lo != 6 || hi != 7 {
		t.Errorf("I_{0,3} = [%d,%d], want [6,7]", lo, hi)
	}
	// I_{2,0} covers [0,7] and its intermediate destinations are the left
	// endpoints of its level-1 subintervals: 0 and 4.
	if lo, hi := h.Interval(2, 0); lo != 0 || hi != 7 {
		t.Errorf("I_{2,0} = [%d,%d], want [0,7]", lo, hi)
	}
	// A packet at 1 headed for 6 leaves the first half for the second.
	if got := h.IntermediateDest(1, 6); got != 4 {
		t.Errorf("x(1,6) = %d, want 4", got)
	}
	// Digits of 13 = 1101₂.
	wantDigits := []int{1, 0, 1, 1}
	for j, want := range wantDigits {
		if got := h.Digit(13, j); got != want {
			t.Errorf("Digit(13,%d) = %d, want %d", j, got, want)
		}
	}
}

// TestFigure1VirtualTrajectory traces a packet from 0 to 13 through the
// Figure 1 hierarchy: segments [0,8] at level 3, [8,12] at level 2, and
// [12,13] at level 0 (level 1 is skipped because digit 1 of 13 is 0).
func TestFigure1VirtualTrajectory(t *testing.T) {
	h := mustHierarchy(t, 2, 4)
	segs := h.Segments(0, 13)
	want := []Segment{
		{From: 0, To: 8, Level: 3},
		{From: 8, To: 12, Level: 2},
		{From: 12, To: 13, Level: 0},
	}
	if len(segs) != len(want) {
		t.Fatalf("Segments(0,13) = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("Segments(0,13) = %v, want %v", segs, want)
		}
	}
}

func TestLevelAndIntermediateDest(t *testing.T) {
	h := mustHierarchy(t, 2, 4)
	tests := []struct {
		i, w  int
		level int
		x     int
	}{
		{0, 13, 3, 8},
		{8, 13, 2, 12},
		{12, 13, 0, 13},
		{0, 1, 0, 1},
		{0, 8, 3, 8},
		{4, 6, 1, 6},
		{5, 7, 1, 6},
	}
	for _, tt := range tests {
		if got := h.Level(tt.i, tt.w); got != tt.level {
			t.Errorf("Level(%d,%d) = %d, want %d", tt.i, tt.w, got, tt.level)
		}
		if got := h.IntermediateDest(tt.i, tt.w); got != tt.x {
			t.Errorf("IntermediateDest(%d,%d) = %d, want %d", tt.i, tt.w, got, tt.x)
		}
	}
}

func TestClassMatchesDigit(t *testing.T) {
	h := mustHierarchy(t, 3, 3)
	for i := 0; i < h.N(); i++ {
		for w := i + 1; w < h.N(); w++ {
			j, k := h.Class(i, w)
			if want := h.Level(i, w); j != want {
				t.Fatalf("Class(%d,%d) level = %d, want %d", i, w, j, want)
			}
			if want := h.Digit(w, j); k != want {
				t.Fatalf("Class(%d,%d) k = %d, want digit %d", i, w, k, want)
			}
		}
	}
}

func TestIntervalOf(t *testing.T) {
	h := mustHierarchy(t, 2, 4)
	r, lo, hi := h.IntervalOf(1, 13)
	if r != 3 || lo != 12 || hi != 15 {
		t.Errorf("IntervalOf(1,13) = %d [%d,%d], want 3 [12,15]", r, lo, hi)
	}
	r, lo, hi = h.IntervalOf(3, 5)
	if r != 0 || lo != 0 || hi != 15 {
		t.Errorf("IntervalOf(3,5) = %d [%d,%d], want 0 [0,15]", r, lo, hi)
	}
}

// Property: segments are contiguous, start at i, end at w, and have
// strictly decreasing levels; each segment stays inside one interval of
// its level; each intermediate endpoint is the left endpoint of its
// next-level interval.
func TestQuickSegmentsWellFormed(t *testing.T) {
	hs := []*Hierarchy{
		mustHierarchy(t, 2, 4),
		mustHierarchy(t, 3, 3),
		mustHierarchy(t, 4, 2),
		mustHierarchy(t, 5, 2),
	}
	f := func(hIdx uint8, iRaw, wRaw uint16) bool {
		h := hs[int(hIdx)%len(hs)]
		i := int(iRaw) % h.N()
		w := int(wRaw) % h.N()
		if i == w {
			return true
		}
		if i > w {
			i, w = w, i
		}
		segs := h.Segments(i, w)
		if len(segs) == 0 || segs[0].From != i || segs[len(segs)-1].To != w {
			return false
		}
		prevLevel := h.Levels()
		for si, s := range segs {
			if s.Level >= prevLevel || s.From >= s.To {
				return false
			}
			prevLevel = s.Level
			if si > 0 && segs[si-1].To != s.From {
				return false
			}
			// Segment inside one level-s.Level interval.
			rf, _, _ := h.IntervalOf(s.Level, s.From)
			rt, _, _ := h.IntervalOf(s.Level, s.To)
			if rf != rt {
				return false
			}
			// Non-initial segment start is a left endpoint at its level.
			if si > 0 && s.From%h.Pow(s.Level) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: x(i,w) > i and x(i,w) ≤ w, and lv strictly decreases after
// moving to the intermediate destination.
func TestQuickIntermediateDestProgress(t *testing.T) {
	h := mustHierarchy(t, 3, 3)
	f := func(iRaw, wRaw uint16) bool {
		i := int(iRaw) % h.N()
		w := int(wRaw) % h.N()
		if i >= w {
			return true
		}
		x := h.IntermediateDest(i, w)
		if x <= i || x > w {
			return false
		}
		if x == w {
			return true
		}
		return h.Level(x, w) < h.Level(i, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyValidate(t *testing.T) {
	h := mustHierarchy(t, 2, 3)
	if err := h.Validate(network.MustPath(8)); err != nil {
		t.Errorf("Validate(path 8): %v", err)
	}
	if err := h.Validate(network.MustPath(9)); err == nil {
		t.Error("Validate accepted wrong size")
	}
	tree, err := network.CaterpillarTree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(tree); err == nil {
		t.Error("Validate accepted a tree")
	}
}

func TestHPTSSpaceBound(t *testing.T) {
	h := mustHierarchy(t, 2, 4)
	if got := HPTSSpaceBound(h, 3); got != 4*2+3+1 {
		t.Errorf("HPTSSpaceBound = %d, want 12", got)
	}
}
