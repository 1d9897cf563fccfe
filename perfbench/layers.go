package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/store"
)

// probeReps is how many times layerProbe runs each mode; it keeps the
// fastest pass of each.
const probeReps = 3

// layerProbe replays a workload's bodies one after another on one
// worker, untraced, in three modes: as the scenarios configure them,
// with adversary verification off (when any body verifies), and traced.
// Each mode runs probeReps times and keeps its fastest pass. From these
// passes it reports, the same way on every workload:
//
//   - sim.allocs_per_round and sim.bytes_per_round, counted around the
//     first configured pass;
//   - trace.overhead_pct, the traced mode's slowdown over the configured
//     one;
//   - the per-round cost of adversary verification, the configured
//     mode's excess over the unverified one, which the caller's layer
//     split reports.
//
// Every pass must reproduce want[i].
func layerProbe(ctx context.Context, b *bench, bodies [][]byte, want []string) (*probeResult, error) {
	scs := make([]*scenario.Scenario, len(bodies))
	verifies := false
	for i, body := range bodies {
		sc, err := scenario.Parse(body)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
		verifies = verifies || sc.Verify
	}
	modes := []string{"plain", "traced"}
	if verifies {
		modes = append(modes, "noverify")
	}
	best := map[string]time.Duration{}
	rounds := 0
	out := &probeResult{traced: newTracer()}
	for r := 0; r < probeReps; r++ {
		for _, mode := range modes {
			var t *tracer
			if mode == "traced" {
				t = out.traced
			}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var took time.Duration
			n := 0
			for i, sc := range scs {
				sw, err := sc.Sweep()
				if err != nil {
					return nil, err
				}
				sw.Workers = 1
				sw.VerifyAdversary = sc.Verify && mode != "noverify"
				reqID := fmt.Sprintf("probe-%s%d/body%d", mode, r, i)
				if t != nil {
					t.instrument(sw, reqID)
				}
				t0 := time.Now()
				res, err := sw.Run(ctx)
				took += time.Since(t0)
				if err != nil {
					return nil, err
				}
				for _, cr := range res.Cells {
					n += cr.Result.Rounds
				}
				b.check(res.FirstErr() == nil && res.Digest() == want[i], "%s digests %s, want %s", reqID, res.Digest(), want[i])
			}
			runtime.ReadMemStats(&m1)
			rounds = n
			if t != nil {
				out.tracedWall += took
			}
			if cur, ok := best[mode]; !ok || took < cur {
				best[mode] = took
			}
			if mode == "plain" && r == 0 {
				b.set("sim.allocs_per_round", ratio(float64(m1.Mallocs-m0.Mallocs), float64(n)))
				b.set("sim.bytes_per_round", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(n)))
			}
		}
	}
	b.set("trace.overhead_pct", 100*(ratio(float64(best["traced"]), float64(best["plain"]))-1))
	if verifies {
		out.verifyNs = ratio(float64(best["plain"]-best["noverify"]), float64(rounds))
	}
	fmt.Fprintf(b.log, "  one-worker probe, fastest of %d: untraced %.3f s, traced %.3f s, verification off %.3f s\n",
		probeReps, best["plain"].Seconds(), best["traced"].Seconds(), best["noverify"].Seconds())
	return out, nil
}

// probeResult is what layerProbe hands back for the layer split.
type probeResult struct {
	traced     *tracer       // the traced passes' cells
	tracedWall time.Duration // their summed sweep time, on one worker
	verifyNs   float64       // verification cost per round
}

// storeProbe replays record sets into fresh store entries through
// Append and Sync, re-opens each finished entry (which verifies every
// segment), and scans it back, checking the re-derived digest.
func storeProbe(b *bench, sets [][]harness.CellRecord) error {
	root := filepath.Join(b.opt.scratch, "store-probe")
	const reps = 5
	var appendD, openD, scanD time.Duration
	var bytes int64
	for r := 0; r < reps; r++ {
		for k, recs := range sets {
			if len(recs) == 0 {
				continue
			}
			recs = harness.RecordsSorted(recs)
			digest := fmt.Sprintf("sha256:%064x", r*len(sets)+k)
			span := harness.IndexRange{Lo: recs[0].Index, Hi: recs[len(recs)-1].Index + 1}
			for _, rec := range recs {
				line, err := json.Marshal(rec)
				if err != nil {
					return err
				}
				bytes += int64(len(line))
			}
			t0 := time.Now()
			st, err := store.Open(root, digest, span, store.Options{})
			if err != nil {
				return err
			}
			for _, rec := range recs {
				if err := st.Append(rec); err != nil {
					return err
				}
			}
			if err := st.Sync(); err != nil {
				return err
			}
			appendD += time.Since(t0)
			if err := st.Close(); err != nil {
				return err
			}
			t1 := time.Now()
			st, err = store.Open(root, digest, span, store.Options{})
			if err != nil {
				return err
			}
			openD += time.Since(t1)
			t2 := time.Now()
			n := 0
			if err := st.Scan(func(harness.CellRecord) error { n++; return nil }); err != nil {
				return err
			}
			scanD += time.Since(t2)
			got, err := st.Digest()
			if err != nil {
				return err
			}
			b.check(n == len(recs) && got == harness.RecordsDigest(recs), "store replay of %d records scanned %d, digest %s", len(recs), n, got)
			if err := st.Close(); err != nil {
				return err
			}
			if err := store.Remove(root, digest); err != nil {
				return err
			}
		}
	}
	mb := float64(bytes) / (1 << 20)
	b.set("store.append_mb_per_s", ratio(mb, appendD.Seconds()))
	b.set("store.scan_mb_per_s", ratio(mb, scanD.Seconds()))
	b.set("store.open_verify_ms", ms(openD)/float64(reps*len(sets)))
	return nil
}
