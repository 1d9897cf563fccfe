package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"smallbuffers/internal/core"
	"smallbuffers/internal/fleet"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
	"smallbuffers/internal/store"
)

// Fleet grid: protocol families × seeds on one moderate path.
const (
	fleetNodes  = 64
	fleetDests  = 4
	fleetSeeds  = 64
	fleetRounds = 96
	// fleetWarmSeeds sizes the set-up's warm-up grid.
	fleetWarmSeeds = 8
)

// fleetBody is grid i's scenario: 4 protocols × fleetSeeds seeds drawn
// from the bench seed.
func fleetBody(seed int64, i int) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	seeds := make([]int64, fleetSeeds)
	for k := range seeds {
		seeds[k] = 1 + rng.Int63n(1<<40)
	}
	return json.Marshal(map[string]any{
		"name":     "fleet-sweep",
		"topology": map[string]any{"name": "path", "params": map[string]any{"n": fleetNodes}},
		"protocols": []any{
			map[string]any{"name": "ppts"},
			map[string]any{"name": "hpts", "params": map[string]any{"ell": 2}},
			map[string]any{"name": "greedy-fifo"},
			map[string]any{"name": "greedy-lis"},
		},
		"adversary": map[string]any{"name": "random", "params": map[string]any{"d": fleetDests}},
		"bound":     map[string]any{"rho": "1/2", "sigma": 2},
		"rounds":    fleetRounds,
		"seeds":     seeds,
	})
}

// fleetBound is the paper's bound for a grid cell; greedy baselines have
// none (ok is false).
func fleetBound(c harness.Cell) (limit int, ok bool, err error) {
	switch {
	case strings.HasPrefix(c.Protocol, "ppts"):
		return 1 + fleetDests + c.Bound.Sigma, true, nil // Prop 3.2
	case strings.HasPrefix(c.Protocol, "hpts"):
		h, err := core.HierarchyFor(fleetNodes, 2)
		if err != nil {
			return 0, false, err
		}
		return core.HPTSSpaceBound(h, c.Bound.Sigma), true, nil // Thm 4.1
	}
	return 0, false, nil
}

// fleetEnv is the set-up: two one-worker daemons and a store root.
type fleetEnv struct {
	daemons []*daemon
	root    string
}

func (e *fleetEnv) stop() {
	for _, d := range e.daemons {
		d.stop()
	}
}

func (e *fleetEnv) endpoints() []string {
	var eps []string
	for _, d := range e.daemons {
		eps = append(eps, d.url)
	}
	return eps
}

// fleetSetup starts the daemons and runs a warm-up grid of
// fleetWarmSeeds seeds through the fleet, which opens the connections.
func fleetSetup(ctx context.Context, b *bench, k int) (*fleetEnv, error) {
	env := &fleetEnv{root: filepath.Join(b.opt.scratch, fmt.Sprintf("fleet%d", k))}
	for i := 0; i < nproc; i++ {
		d, err := startDaemon(service.Config{Workers: 1, SweepWorkers: 1, SSEHeartbeat: -1})
		if err != nil {
			env.stop()
			return nil, err
		}
		env.daemons = append(env.daemons, d)
	}
	body, err := fleetBody(b.opt.seed, -1)
	if err != nil {
		env.stop()
		return nil, err
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		env.stop()
		return nil, err
	}
	sc.Seeds = sc.Seeds[:fleetWarmSeeds]
	if _, err := fleet.Run(ctx, fleet.Config{Endpoints: env.endpoints()}, sc); err != nil {
		env.stop()
		return nil, fmt.Errorf("warm-up fleet run: %w", err)
	}
	return env, nil
}

// fleetRep is one repetition: the grid through the fleet into a store,
// then the same grid locally.
type fleetRep struct {
	fleetWall, localWall time.Duration // host time
	cells, rounds, hops  int
	summary              fleet.Summary
	records              []harness.CellRecord
	poolTime             time.Duration
}

// runFleetRep runs grid i on the fleet (merging into a fresh store
// entry) and locally, and checks fleet digest == local digest == the
// digest re-derived from the store, and every cell's paper bound.
func runFleetRep(ctx context.Context, b *bench, env *fleetEnv, i int, tr *tracer) (*fleetRep, error) {
	body, err := fleetBody(b.opt.seed, i)
	if err != nil {
		return nil, err
	}
	rep := &fleetRep{}
	reqID := fmt.Sprintf("grid%d", i)

	h0, t0 := hostNow(), time.Now()
	sc, err := scenario.Parse(body)
	if err != nil {
		return nil, err
	}
	dig, err := sc.Digest()
	if err != nil {
		return nil, err
	}
	total, err := sc.GridSize()
	if err != nil {
		return nil, err
	}
	st, err := store.Open(env.root, dig, harness.IndexRange{Lo: 0, Hi: total}, store.Options{})
	if err != nil {
		return nil, err
	}
	fres, err := fleet.Run(ctx, fleet.Config{Endpoints: env.endpoints(), Store: st}, sc)
	h1, t1 := hostNow(), time.Now()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("fleet run: %w", err)
	}
	rep.fleetWall = h0.to(h1)
	rep.summary = fres.Summary
	if tr != nil {
		tr.addSpan(span{ID: reqID, Name: "fleet", Start: t0, End: t1})
	}

	h2, t2 := hostNow(), time.Now()
	lsc, err := scenario.Parse(body)
	if err != nil {
		st.Close()
		return nil, err
	}
	sw, err := lsc.Sweep()
	if err != nil {
		st.Close()
		return nil, err
	}
	sw.Workers = nproc
	if tr != nil {
		tr.instrument(sw, reqID)
	}
	t3 := time.Now()
	res, err := sw.Run(ctx)
	t4 := time.Now()
	if err != nil {
		st.Close()
		return nil, err
	}
	rep.localWall = h2.since()
	rep.poolTime = t4.Sub(t3) * time.Duration(sw.Workers)
	if tr != nil {
		tr.addSpan(span{ID: reqID, Name: "request", Start: t2, End: t4})
		tr.addSpan(span{ID: reqID, Name: "sweep", Parent: "request", Start: t3, End: t4})
	}

	// Checks, outside the timed operations.
	stored, err := st.Digest()
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Scan(func(rec harness.CellRecord) error {
		rep.records = append(rep.records, rec)
		return nil
	}); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if err := store.Remove(env.root, dig); err != nil {
		return nil, err
	}
	local := res.Digest()
	b.check(fres.Summary.ResultsDigest == local && stored == local, "%s: fleet digest %s, local %s, store %s", reqID, fres.Summary.ResultsDigest, local, stored)
	b.check(fres.Summary.Failed == 0 && fres.Summary.Completed == total, "%s: fleet completed %d of %d cells, %d failed", reqID, fres.Summary.Completed, total, fres.Summary.Failed)
	b.noteDigest(tr != nil, reqID, local)
	for _, cr := range res.Cells {
		b.ops(2) // the fleet's copy of the cell and the local one
		if cr.Err != nil {
			b.fail("%s: cell %v: %v", reqID, cr.Cell, cr.Err)
			continue
		}
		rep.cells += 2
		rep.rounds += 2 * cr.Result.Rounds
		for _, f := range cr.Result.PerLinkForwards {
			rep.hops += 2 * f
		}
		limit, ok, err := fleetBound(cr.Cell)
		if err != nil {
			return nil, err
		}
		if ok && cr.Result.MaxLoad > limit {
			b.fail("%s: cell %v: max load %d exceeds the paper bound %d", reqID, cr.Cell, cr.Result.MaxLoad, limit)
		}
	}
	return rep, nil
}

// fleetPass repeats grids until the pass has lasted seconds.
func fleetPass(ctx context.Context, b *bench, env *fleetEnv, tr *tracer) ([]*fleetRep, error) {
	var reps []*fleetRep
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < b.opt.seconds; i++ {
		runtime.GC()
		rep, err := runFleetRep(ctx, b, env, i, tr)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func runFleetSweep(ctx context.Context, b *bench) error {
	var setups []float64
	var env *fleetEnv
	for k := 0; k < setupReps; k++ {
		if env != nil {
			env.stop()
		}
		runtime.GC()
		h := hostNow()
		var err error
		if env, err = fleetSetup(ctx, b, k); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, h.since().Seconds())
	}
	b.set("setup_s", median(setups))
	defer func() { env.stop() }()

	runtime.GC()
	rss := watchRSS()
	reps, err := fleetPass(ctx, b, env, nil)
	b.set("peak_rss_mb", rss.finish())
	if err != nil {
		return err
	}
	// Per-repetition rates over the fleet and local runs together; the
	// pass reports their medians.
	var roundRates, hopRates, cellRates, fleetMs, ratios []float64
	for _, r := range reps {
		secs := (r.fleetWall + r.localWall).Seconds()
		roundRates = append(roundRates, float64(r.rounds)/secs)
		hopRates = append(hopRates, float64(r.hops)/secs)
		cellRates = append(cellRates, float64(r.cells)/secs)
		fleetMs = append(fleetMs, ms(r.fleetWall))
		ratios = append(ratios, ratio(float64(r.fleetWall), float64(r.localWall)))
	}
	b.set("rounds_per_s", median(roundRates))
	b.set("hops_per_s", median(hopRates))
	b.set("cells_per_s", median(cellRates))
	b.set("req_ms", median(fleetMs))
	b.set("fleet_overhead_ratio", median(ratios))
	var dispatches, retries, steals int
	var overIdeal []float64
	for _, r := range reps {
		for _, d := range r.summary.Daemons {
			dispatches += d.Dispatches
		}
		retries += r.summary.Retries
		steals += r.summary.Steals
		overIdeal = append(overIdeal, ratio(float64(r.summary.Wall), float64(r.summary.Ideal)))
	}
	b.set("fleet.dispatches", float64(dispatches)/float64(len(reps)))
	b.set("fleet.retries", float64(retries)/float64(len(reps)))
	b.set("fleet.steals", float64(steals)/float64(len(reps)))
	b.set("fleet.wall_over_ideal", median(overIdeal))
	fmt.Fprintf(b.log, "  untraced: %d grids of %d cells, fleet/local %.3f\n", len(reps), reps[0].cells/2, median(ratios))
	if !b.opt.trace {
		return nil
	}

	tr := newTracer()
	runtime.GC()
	treps, err := fleetPass(ctx, b, env, tr)
	if err != nil {
		return err
	}
	var pool time.Duration
	for _, r := range treps {
		pool += r.poolTime
	}
	cells := tr.finishedCells()
	cellStats(b, cells, pool)

	body, err := fleetBody(b.opt.seed, 0)
	if err != nil {
		return err
	}
	probe, err := layerProbe(ctx, b, [][]byte{body}, []string{b.digests["grid0"]})
	if err != nil {
		return err
	}
	splitOf(cells).report(b, probe.verifyNs)
	if err := scenarioCosts(b, func(i int) ([]byte, error) { return fleetBody(b.opt.seed, i) }, len(reps)); err != nil {
		return err
	}
	if err := storeProbe(b, [][]harness.CellRecord{reps[len(reps)-1].records}); err != nil {
		return err
	}
	return writeTrace(b, tr)
}
