package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"smallbuffers/internal/core"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
)

// simSpec describes a workload that runs sweeps through the harness
// in-process. Each request is one scenario body whose seed axis is drawn
// from the bench seed; the user-visible latency of a request is its
// Parse + compile + Sweep.Run time.
type simSpec struct {
	// body returns request i's scenario at the given horizon.
	body func(rng *rand.Rand, rounds int) map[string]any
	// rounds is the measured horizon; warmRounds the set-up warm-up's.
	rounds, warmRounds int
	// bound is the paper's space bound for a cell.
	bound func(c harness.Cell) (int, error)
}

// requestBody draws request i's body deterministically from the seed.
func (s simSpec) requestBody(seed int64, i, rounds int) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	return json.Marshal(s.body(rng, rounds))
}

func runHPTSDense(ctx context.Context, b *bench) error {
	spec, err := hptsDenseSpec()
	if err != nil {
		return err
	}
	return runSimWorkload(ctx, b, spec)
}

func runPathSparse(ctx context.Context, b *bench) error {
	return runSimWorkload(ctx, b, pathSparseSpec())
}

// hptsDenseSpec is HPTS(ℓ=2) on path(256) at ρ=1/2, σ=2 with every node
// a destination, verified, two seeds per request.
func hptsDenseSpec() (simSpec, error) {
	const n, ell = 256, 2
	dests := make([]int, 0, n-1)
	for v := 1; v < n; v++ {
		dests = append(dests, v)
	}
	h, err := core.HierarchyFor(n, ell)
	if err != nil {
		return simSpec{}, err
	}
	return simSpec{
		body: func(rng *rand.Rand, rounds int) map[string]any {
			return map[string]any{
				"name":      "hpts-dense",
				"topology":  map[string]any{"name": "path", "params": map[string]any{"n": n}},
				"protocol":  map[string]any{"name": "hpts", "params": map[string]any{"ell": ell}},
				"adversary": map[string]any{"name": "random", "params": map[string]any{"dests": dests}},
				"bound":     map[string]any{"rho": "1/2", "sigma": 2},
				"rounds":    rounds,
				"seeds":     []int64{1 + rng.Int63n(1<<40), 1 + rng.Int63n(1<<40)},
				"verify":    true,
			}
		},
		rounds:     1024,
		warmRounds: 256,
		bound: func(c harness.Cell) (int, error) {
			return core.HPTSSpaceBound(h, c.Bound.Sigma), nil
		},
	}, nil
}

// pathSparseSpec is PTS and PPTS, both draining, on path(1000) and
// path(10000) under a verified rate-1 stream.
func pathSparseSpec() simSpec {
	return simSpec{
		body: func(rng *rand.Rand, rounds int) map[string]any {
			return map[string]any{
				"name": "path-sparse",
				"topologies": []any{
					map[string]any{"name": "path", "params": map[string]any{"n": 1000}},
					map[string]any{"name": "path", "params": map[string]any{"n": 10000}},
				},
				"protocols": []any{
					map[string]any{"name": "pts", "params": map[string]any{"drain": true}},
					map[string]any{"name": "ppts", "params": map[string]any{"drain": true}},
				},
				// The seed picks the stream's source near the head of the
				// path; the stream itself is deterministic.
				"adversary": map[string]any{"name": "stream", "params": map[string]any{"src": rng.Intn(16)}},
				"bound":     map[string]any{"rho": "1", "sigma": 0},
				"rounds":    rounds,
				"verify":    true,
			}
		},
		rounds:     500,
		warmRounds: 64,
		bound: func(c harness.Cell) (int, error) {
			// One destination: PTS ≤ 2+σ (Prop 3.1), PPTS ≤ 1+d+σ with
			// d = 1 (Prop 3.2).
			switch {
			case strings.HasPrefix(c.Protocol, "pts"):
				return 2 + c.Bound.Sigma, nil
			case strings.HasPrefix(c.Protocol, "ppts"):
				return 1 + 1 + c.Bound.Sigma, nil
			}
			return 0, fmt.Errorf("no paper bound for protocol %q", c.Protocol)
		},
	}
}

// simPass is what one pass over the request sequence measured.
type simPass struct {
	requests int
	cells    int
	rounds   int
	hops     int
	busy     time.Duration // summed request latency, in host time
	reqMs    []float64
	poolTime time.Duration // summed sweep wall × workers
	// Per-request rates: the pass reports their medians, so a request
	// slowed by a noisy neighbour moves the result less than a mean would.
	roundRates, hopRates, cellRates []float64
}

// runSimRequest parses, compiles and runs one request, then checks every
// cell against the paper bound.
func runSimRequest(ctx context.Context, b *bench, spec simSpec, body []byte, tr *tracer, reqID string, p *simPass) error {
	h0, t0 := hostNow(), time.Now()
	sc, err := scenario.Parse(body)
	if err != nil {
		return err
	}
	sw, err := sc.Sweep()
	if err != nil {
		return err
	}
	sw.Workers = nproc
	if tr != nil {
		tr.instrument(sw, reqID)
	}
	t1 := time.Now()
	res, err := sw.Run(ctx)
	t2 := time.Now()
	took := h0.since()
	if err != nil {
		return err
	}
	if tr != nil {
		tr.addSpan(span{ID: reqID, Name: "request", Start: t0, End: t2})
		tr.addSpan(span{ID: reqID, Name: "sweep", Parent: "request", Start: t1, End: t2})
	}
	p.requests++
	p.busy += took
	p.poolTime += t2.Sub(t1) * time.Duration(sw.Workers)
	p.reqMs = append(p.reqMs, ms(took))
	var cells, rounds, hops int
	for _, cr := range res.Cells {
		b.ops(1)
		cells++
		if cr.Err != nil {
			b.fail("%s: cell %v: %v", reqID, cr.Cell, cr.Err)
			continue
		}
		rounds += cr.Result.Rounds
		for _, f := range cr.Result.PerLinkForwards {
			hops += f
		}
		limit, err := spec.bound(cr.Cell)
		if err != nil {
			b.fail("%s: %v", reqID, err)
			continue
		}
		if cr.Result.MaxLoad > limit {
			b.fail("%s: cell %v: max load %d exceeds the paper bound %d", reqID, cr.Cell, cr.Result.MaxLoad, limit)
		}
	}
	secs := took.Seconds()
	p.cells += cells
	p.rounds += rounds
	p.hops += hops
	p.roundRates = append(p.roundRates, float64(rounds)/secs)
	p.hopRates = append(p.hopRates, float64(hops)/secs)
	p.cellRates = append(p.cellRates, float64(cells)/secs)
	b.noteDigest(tr != nil, reqID, res.Digest())
	return nil
}

// runSimPass sends requests back to back until the pass has lasted
// seconds.
func runSimPass(ctx context.Context, b *bench, spec simSpec, tr *tracer) (*simPass, error) {
	p := &simPass{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < b.opt.seconds; i++ {
		body, err := spec.requestBody(b.opt.seed, i, spec.rounds)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if err := runSimRequest(ctx, b, spec, body, tr, fmt.Sprintf("req%d", i), p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// simSetup is the workload's set-up: load, validate and digest the first
// request, compile it to a sweep, build its topologies, and run a short
// warm-up of the whole grid.
func simSetup(ctx context.Context, b *bench, spec simSpec) error {
	body, err := spec.requestBody(b.opt.seed, 0, spec.rounds)
	if err != nil {
		return err
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		return err
	}
	if _, err := sc.Digest(); err != nil {
		return err
	}
	sw, err := sc.Sweep()
	if err != nil {
		return err
	}
	if _, err := sw.CellsToRun(); err != nil {
		return err
	}
	for _, t := range sw.Topologies {
		if _, err := t.New(); err != nil {
			return err
		}
	}
	warm, err := spec.requestBody(b.opt.seed, -1, spec.warmRounds)
	if err != nil {
		return err
	}
	wsc, err := scenario.Parse(warm)
	if err != nil {
		return err
	}
	wsw, err := wsc.Sweep()
	if err != nil {
		return err
	}
	wsw.Workers = nproc
	res, err := wsw.Run(ctx)
	if err != nil {
		return err
	}
	return res.FirstErr()
}

func runSimWorkload(ctx context.Context, b *bench, spec simSpec) error {
	var setups []float64
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		h := hostNow()
		if err := simSetup(ctx, b, spec); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, h.since().Seconds())
	}
	b.set("setup_s", median(setups))

	runtime.GC()
	rss := watchRSS()
	plain, err := runSimPass(ctx, b, spec, nil)
	b.set("peak_rss_mb", rss.finish())
	if err != nil {
		return err
	}
	b.set("rounds_per_s", median(plain.roundRates))
	b.set("hops_per_s", median(plain.hopRates))
	b.set("cells_per_s", median(plain.cellRates))
	b.set("req_ms", median(plain.reqMs))
	fmt.Fprintf(b.log, "  untraced: %d requests, %d cells, %d rounds in %.3f s\n", plain.requests, plain.cells, plain.rounds, plain.busy.Seconds())
	if !b.opt.trace {
		return nil
	}

	runtime.GC()
	tr := newTracer()
	traced, err := runSimPass(ctx, b, spec, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.log, "  rounds/s per request: untraced median %.1f, traced median %.1f\n", median(plain.roundRates), median(traced.roundRates))
	cells := tr.finishedCells()
	cellStats(b, cells, traced.poolTime)

	body, err := spec.requestBody(b.opt.seed, 0, spec.rounds)
	if err != nil {
		return err
	}
	probe, err := layerProbe(ctx, b, [][]byte{body}, []string{b.digests["req0"]})
	if err != nil {
		return err
	}
	splitOf(cells).report(b, probe.verifyNs)
	if err := scenarioCosts(b, func(i int) ([]byte, error) { return spec.requestBody(b.opt.seed, i, spec.rounds) }, plain.requests); err != nil {
		return err
	}
	return writeTrace(b, tr)
}

// scenarioCosts times the scenario layer on the workload's request
// bodies: Parse (which validates) plus Digest per body, and the
// compile to a sweep with its topologies built.
func scenarioCosts(b *bench, body func(i int) ([]byte, error), n int) error {
	if n < 1 {
		n = 1
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		var err error
		if bodies[i], err = body(i); err != nil {
			return err
		}
	}
	const reps = 20
	var parse, compile time.Duration
	for r := 0; r < reps; r++ {
		for _, data := range bodies {
			t0 := time.Now()
			sc, err := scenario.Parse(data)
			if err != nil {
				return err
			}
			if _, err := sc.Digest(); err != nil {
				return err
			}
			t1 := time.Now()
			sw, err := sc.Sweep()
			if err != nil {
				return err
			}
			if _, err := sw.CellsToRun(); err != nil {
				return err
			}
			for _, t := range sw.Topologies {
				if _, err := t.New(); err != nil {
					return err
				}
			}
			t2 := time.Now()
			parse += t1.Sub(t0)
			compile += t2.Sub(t1)
		}
	}
	total := float64(reps * len(bodies))
	b.set("scenario.load_validate_us", float64(parse)/float64(time.Microsecond)/total)
	b.set("scenario.compile_ms", ms(compile)/total)
	return nil
}

// writeTrace writes the pass's spans under .bench_build/traces.
func writeTrace(b *bench, tr *tracer) error {
	dir := filepath.Join(b.opt.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.opt.workload, b.opt.seed))
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "  spans written to %s\n", path)
	return nil
}
