package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestAllRegistered(t *testing.T) {
	all := All()
	wantIDs := []string{"F1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}
	if len(all) != len(wantIDs) {
		t.Fatalf("All() = %d experiments, want %d", len(all), len(wantIDs))
	}
	seen := make(map[string]bool)
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("experiment %d has ID %q, want %q", i, e.ID, wantIDs[i])
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete definition", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E4")
	if err != nil || e.ID != "E4" {
		t.Errorf("ByID(E4) = %v, %v", e.ID, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("ByID(E99) succeeded")
	}
}

// Each experiment runs green and asserts its own bounds. The fast ones run
// in any mode; the heavier sweeps are guarded by -short.
func TestExperimentsPass(t *testing.T) {
	fast := map[string]bool{"F1": true, "E9": true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && !fast[e.ID] {
				t.Skip("heavy sweep; run without -short")
			}
			var buf bytes.Buffer
			out, err := e.Run(context.Background(), &buf)
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", e.ID, err, buf.String())
			}
			if !out.OK {
				t.Errorf("%s reports violated bounds:\n%s", e.ID, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

// TestRunAllAggregates checks the suite runner's fold over a fast
// subset; TestExperimentsPass checks every experiment's bounds.
func TestRunAllAggregates(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"F1", "E9"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	var buf bytes.Buffer
	ok, err := RunAll(context.Background(), &buf, exps)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("RunAll reports failures")
	}
	for _, e := range exps {
		if !strings.Contains(buf.String(), e.ID+" — "+e.Title) {
			t.Errorf("RunAll output lacks the %s header", e.ID)
		}
	}
}

func TestFigure1Output(t *testing.T) {
	var buf bytes.Buffer
	f1, err := ByID("F1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := f1.Run(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Error("F1 not OK")
	}
	text := buf.String()
	for _, want := range []string{"n = 16, m = 2, ℓ = 4", "0000", "1111", "virtual trajectory"} {
		if !strings.Contains(text, want) {
			t.Errorf("Figure 1 output missing %q:\n%s", want, text)
		}
	}
}
