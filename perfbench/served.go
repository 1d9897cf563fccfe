package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"smallbuffers/internal/harness"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
)

// Served-mixed load shape. A cold request simulates a corpus file with
// a freshly drawn seed axis and persists it; a warm one repeats an
// unmodified corpus body and is a cache hit. Every other request is
// cold: no traffic trace exists to copy a mix from, and one to one
// gives the cold and the cache-hit latencies equal sample counts, with
// reads interleaved with writes throughout.
//
// The rates are fixed, set from this mix's measured capacity: two
// closed-loop senders (the connection budget) against the daemon below
// completed 47–53 requests per second in a slow period of the 2-vCPU
// reference machine (go1.24), 64–65 in a middling one and 90–92 in a
// fast one. Light is a third to a sixth of that, heavy 85–95% of the
// slow capacity and half of the fast one. Each phase sends whole cycles
// of the corpus as cold requests, so its median covers every file
// equally.
const (
	coldEvery     = 2
	lightRPS      = 16
	heavyRPS      = 45
	latencyLimit  = time.Second // a request slower than this, failed or refused misses
	failedLatency = 2 * latencyLimit
)

// corpusFile is one testdata/scenarios file with its pinned digest.
type corpusFile struct {
	name      string
	body      []byte
	raw       map[string]any
	seedCount int
	pinned    string
}

// loadCorpus reads the scenario corpus and its pinned results digests.
func loadCorpus(root string) ([]corpusFile, error) {
	pinnedData, err := os.ReadFile(filepath.Join(root, "testdata", "corpus_digests.json"))
	if err != nil {
		return nil, err
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedData, &pinned); err != nil {
		return nil, fmt.Errorf("corpus_digests.json: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var files []corpusFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		f := corpusFile{name: filepath.Base(p), body: data, seedCount: 1}
		if err := json.Unmarshal(data, &f.raw); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		if seeds, ok := f.raw["seeds"].([]any); ok && len(seeds) > 0 {
			f.seedCount = len(seeds)
		}
		if f.pinned = pinned[f.name]; f.pinned == "" {
			return nil, fmt.Errorf("%s has no pinned digest", f.name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenarios under %s", filepath.Join(root, "testdata", "scenarios"))
	}
	return files, nil
}

// coldBody returns f with its seed axis replaced by seeds.
func coldBody(f corpusFile, seeds []int64) ([]byte, error) {
	m := make(map[string]any, len(f.raw)+1)
	for k, v := range f.raw {
		m[k] = v
	}
	delete(m, "seed")
	m["seeds"] = seeds
	return json.Marshal(m)
}

// servedSetup loads and checks the corpus, starts a daemon with a
// durable cache in dir, and warms it with every unmodified corpus body,
// whose served digests must equal the pinned ones.
func servedSetup(ctx context.Context, b *bench, dir string) ([]corpusFile, *daemon, []*service.Report, error) {
	files, err := loadCorpus(b.opt.root)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, f := range files {
		sc, err := scenario.Parse(f.body)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", f.name, err)
		}
		if _, err := sc.Digest(); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	d, err := startDaemon(service.Config{Workers: nproc, SweepWorkers: 1, CacheDir: dir, SSEHeartbeat: -1})
	if err != nil {
		return nil, nil, nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	reps := make([]*service.Report, len(files))
	for i, f := range files {
		rep, _, err := postRun(ctx, c, d.url, "", f.body)
		if err != nil {
			d.stop()
			return nil, nil, nil, fmt.Errorf("warming %s: %w", f.name, err)
		}
		b.check(rep.ResultsDigest == f.pinned, "served %s digests %s, pinned %s", f.name, rep.ResultsDigest, f.pinned)
		reps[i] = rep
	}
	return files, d, reps, nil
}

// servedResult is one slot's response.
type servedResult struct {
	digest    string
	cached    bool
	rejected  bool
	firstCell time.Duration // traced cold requests: POST to first record
	steal     time.Duration // steal time while the request was out (see hostclock.go)
	err       error
}

// servedPass runs the fixed schedule against d. Traced cold requests go
// through POST ?wait=0 and the NDJSON stream, so the first record's
// arrival and every cell's are visible; untraced ones are synchronous
// POSTs.
func servedPass(ctx context.Context, d *daemon, slots []slot, bodies [][]byte, tr *tracer) ([]outcome, []servedResult, int) {
	c := newClient()
	defer c.CloseIdleConnections()
	results := make([]servedResult, len(slots))

	// Sample the daemon's in-flight runs while the window is open.
	sampleCtx, stopSampling := context.WithCancel(ctx)
	var wg sync.WaitGroup
	inFlightMax := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-tick.C:
				if n, err := inFlight(sampleCtx, c, d.url); err == nil && n > inFlightMax {
					inFlightMax = n
				}
			}
		}
	}()

	send := func(ctx context.Context, i int) bool {
		r := &results[i]
		sent := time.Now()
		s0 := stolen()
		defer func() { r.steal = stolen() - s0 }()
		reqID := fmt.Sprintf("slot%d", i)
		if tr == nil || slots[i].Warm {
			rep, code, err := postRun(ctx, c, d.url, "", bodies[i])
			r.rejected = code == 503
			if err != nil {
				r.err = err
				return false
			}
			r.digest, r.cached = rep.ResultsDigest, rep.Cached
			return rep.Status == service.StatusDone
		}
		rep, code, err := postRun(ctx, c, d.url, "?wait=0", bodies[i])
		r.rejected = code == 503
		if err != nil {
			r.err = err
			return false
		}
		t1 := time.Now()
		if rep.Status != service.StatusDone {
			last := t1
			n := 0
			rep, err = streamRun(ctx, c, d.url, rep.ID, func() {
				now := time.Now()
				if n == 0 {
					r.firstCell = now.Sub(sent)
				}
				tr.addSpan(span{ID: reqID, Name: fmt.Sprintf("cell/%d", n), Parent: "sweep", Start: last, End: now})
				last = now
				n++
			})
			if err != nil {
				r.err = err
				return false
			}
		}
		end := time.Now()
		tr.addSpan(span{ID: reqID, Name: "request", Start: sent, End: end})
		tr.addSpan(span{ID: reqID, Name: "sweep", Parent: "request", Start: t1, End: end})
		r.digest, r.cached = rep.ResultsDigest, rep.Cached
		return rep.Status == service.StatusDone
	}
	outs := runSchedule(ctx, wallClock{}, time.Now(), slots, nproc, send)
	stopSampling()
	wg.Wait()
	return outs, results, inFlightMax
}

func runServedMixed(ctx context.Context, b *bench) error {
	var setups []float64
	var files []corpusFile
	var d *daemon
	var warmReps []*service.Report
	for k := 0; k < setupReps; k++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		h := hostNow()
		var err error
		files, d, warmReps, err = servedSetup(ctx, b, filepath.Join(b.opt.scratch, fmt.Sprintf("cache%d", k)))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, h.since().Seconds())
	}
	b.set("setup_s", median(setups))
	defer func() { d.stop() }()

	phase := time.Duration(b.opt.seconds / 2 * float64(time.Second))
	cycle := len(files) * coldEvery
	cycles := func(rps float64) int { return cycle * max(1, int(math.Round(rps*phase.Seconds()/float64(cycle)))) }
	plan := loadPlan{light: cycles(lightRPS), heavy: cycles(heavyRPS), phase: phase, coldEvery: coldEvery}
	seedCounts := make([]int, len(files))
	for i, f := range files {
		seedCounts[i] = f.seedCount
	}
	slots := buildSchedule(b.opt.seed, seedCounts, plan)
	bodies := make([][]byte, len(slots))
	for i, s := range slots {
		if s.Warm {
			bodies[i] = files[s.File].body
			continue
		}
		var err error
		if bodies[i], err = coldBody(files[s.File], s.Seeds); err != nil {
			return err
		}
	}

	runtime.GC()
	rss := watchRSS()
	outs, results, inFlightMax := servedPass(ctx, d, slots, bodies, nil)
	b.set("peak_rss_mb", rss.finish())
	stats := b.servedChecks(ctx, files, slots, bodies, outs, results, false)
	// Simulation rates over the time the daemon spent on cold requests:
	// each one's host time from send to completion, summed. A slower
	// daemon moves them even while it keeps up with the schedule.
	b.set("rounds_per_s", ratio(float64(stats.rounds), stats.coldBusy.Seconds()))
	b.set("hops_per_s", ratio(float64(stats.hops), stats.coldBusy.Seconds()))
	b.set("cells_per_s", ratio(float64(stats.cells), stats.coldBusy.Seconds()))
	// req_ms: each corpus file's median cold request, timed from send to
	// completion over both rates, summed over the files: the time one
	// cold pass over the corpus takes. A single median over all files
	// would sit at whichever of 13 files of 5-250 ms falls in the middle
	// and jump between them; timing from the due time would add the
	// generator's queueing, which grows faster than the host slows.
	// Both spread past the bound on a shared host.
	var corpusMs float64
	for _, xs := range stats.coldServiceMs {
		corpusMs += median(xs)
	}
	b.set("req_ms", corpusMs)
	b.servedLatencies(stats, slots, outs, phase, inFlightMax)
	if !b.opt.trace {
		return nil
	}

	// The traced pass replays the same schedule against a fresh daemon,
	// so its cold requests simulate again and digest identically.
	_, td, _, err := servedSetup(ctx, b, filepath.Join(b.opt.scratch, "cache-traced"))
	if err != nil {
		return err
	}
	defer td.stop()
	tr := newTracer()
	runtime.GC()
	touts, tresults, _ := servedPass(ctx, td, slots, bodies, tr)
	tstats := b.servedChecks(ctx, files, slots, bodies, touts, tresults, true)
	var first []float64
	for i, s := range slots {
		if !s.Warm && tresults[i].firstCell > 0 {
			first = append(first, ms(tresults[i].firstCell))
		}
	}
	b.set("service.first_cell_ms", median(first))
	fmt.Fprintf(b.log, "  traced pass: %d cold requests streamed, %d failed\n", len(first), tstats.failed)

	corpus := make([][]byte, len(files))
	pinned := make([]string, len(files))
	for i, f := range files {
		corpus[i], pinned[i] = f.body, f.pinned
	}
	// The daemon builds its sweeps itself, out of the decorators' reach,
	// so the layer split comes from the probe's local traced replay.
	probe, err := layerProbe(ctx, b, corpus, pinned)
	if err != nil {
		return err
	}
	cells := probe.traced.finishedCells()
	cellStats(b, cells, probe.tracedWall)
	splitOf(cells).report(b, probe.verifyNs)
	if err := scenarioCosts(b, func(i int) ([]byte, error) { return corpus[i], nil }, len(corpus)); err != nil {
		return err
	}
	var sets [][]harness.CellRecord
	for _, rep := range warmReps {
		sets = append(sets, rep.Cells)
	}
	if err := storeProbe(b, sets); err != nil {
		return err
	}
	return writeTrace(b, tr)
}

// servedStats is what the post-window checks derived from a pass.
type servedStats struct {
	// rounds, hops and cells are the cold requests' simulated work, and
	// coldBusy the host time they took from send to completion.
	rounds, hops, cells int
	coldBusy            time.Duration
	// heavyBusy is the same time summed over every heavy-phase request.
	heavyBusy        time.Duration
	failed, rejected int
	coldMs           map[bool][]float64 // by heavy
	coldServiceMs    map[int][]float64  // by file: send to completion, both rates
	hitMs            []float64
	goodHeavy        int
}

// servedChecks checks every response, outside the timed window: warm
// requests must be cache hits with the pinned digest, and every cold
// request's digest must equal a local scenario.Run of the same body,
// whose cells also supply the simulated rounds and hops. A traced pass's
// cold digests must equal the untraced pass's.
func (b *bench) servedChecks(ctx context.Context, files []corpusFile, slots []slot, bodies [][]byte, outs []outcome, results []servedResult, traced bool) servedStats {
	st := servedStats{coldMs: map[bool][]float64{}, coldServiceMs: map[int][]float64{}}
	for i, s := range slots {
		b.ops(1)
		r, o := results[i], outs[i]
		// Latency in host time: the request's wait from its due time,
		// less the steal while it was out; busy leaves out the wait
		// before it was sent.
		lat := ms(max(o.Latency-r.steal, 0))
		busy := max(o.Latency-o.Lag-r.steal, 0)
		ok := o.Sent && o.OK && r.err == nil
		if r.rejected {
			st.rejected++
		}
		service := ms(busy)
		if !ok {
			st.failed++
			b.fail("slot %d (%s, warm=%v): %v", i, files[s.File].name, s.Warm, r.err)
			lat = math.Max(lat, ms(failedLatency))
			service = math.Max(service, ms(failedLatency))
		}
		if s.Warm {
			st.hitMs = append(st.hitMs, lat)
			if ok {
				b.check(r.cached && r.digest == files[s.File].pinned, "warm slot %d (%s): cached=%v digest %s, pinned %s", i, files[s.File].name, r.cached, r.digest, files[s.File].pinned)
			}
		} else {
			st.coldMs[s.Heavy] = append(st.coldMs[s.Heavy], lat)
			st.coldServiceMs[s.File] = append(st.coldServiceMs[s.File], service)
		}
		if s.Heavy && ok && lat <= ms(latencyLimit) {
			st.goodHeavy++
		}
		if s.Heavy && o.Sent {
			st.heavyBusy += busy
		}
		if s.Warm || !ok {
			continue
		}
		key := fmt.Sprintf("slot%d", i)
		if traced {
			// The untraced pass already matched this body against a local
			// run; the traced response must equal that one.
			b.noteDigest(true, key, r.digest)
			continue
		}
		sc, err := scenario.Parse(bodies[i])
		if err != nil {
			b.fail("slot %d: %v", i, err)
			continue
		}
		sw, err := sc.Sweep()
		if err != nil {
			b.fail("slot %d: %v", i, err)
			continue
		}
		sw.Workers = nproc
		res, err := sw.Run(ctx)
		if err != nil {
			b.fail("slot %d: local run: %v", i, err)
			continue
		}
		b.check(res.Digest() == r.digest, "cold slot %d (%s): served digest %s, local %s", i, files[s.File].name, r.digest, res.Digest())
		b.noteDigest(false, key, r.digest)
		st.coldBusy += busy
		st.cells += len(res.Cells)
		for _, cr := range res.Cells {
			st.rounds += cr.Result.Rounds
			for _, f := range cr.Result.PerLinkForwards {
				st.hops += f
			}
		}
	}
	return st
}

// servedLatencies records the served latency, goodput and generator
// metrics of the untraced pass, and logs the heavy rate's verdict.
func (b *bench) servedLatencies(st servedStats, slots []slot, outs []outcome, phase time.Duration, inFlightMax int) {
	for _, rate := range []struct {
		name  string
		heavy bool
	}{{"light", false}, {"heavy", true}} {
		lat := st.coldMs[rate.heavy]
		b.set("req_p50_ms."+rate.name, percentile(lat, 50))
		b.set("req_p99_ms."+rate.name, percentile(lat, 99))
		b.set("req_n."+rate.name, float64(len(lat)))
	}
	b.set("hit_p50_ms", percentile(st.hitMs, 50))
	b.set("hit_p99_ms", percentile(st.hitMs, 99))
	b.set("hit_n", float64(len(st.hitMs)))
	b.set("goodput_rps.heavy", float64(st.goodHeavy)/phase.Seconds())
	var lags []float64
	for _, o := range outs {
		if o.Sent {
			lags = append(lags, ms(o.Lag))
		}
	}
	b.set("loadgen.lag_p99_ms", percentile(lags, 99))
	maxB, first, second := backlog(slots, outs, phase, 2*phase)
	b.set("loadgen.backlog_max", float64(maxB))
	b.set("service.in_flight_max", float64(inFlightMax))
	b.set("service.rejected", float64(st.rejected))
	verdict := "within capacity"
	if second > 2*first+1 {
		verdict = "OVER CAPACITY (backlog grew across the heavy window)"
	}
	heavy := 0
	span := phase // the heavy phase and any backlog it left to drain
	for i, s := range slots {
		if s.Heavy {
			heavy++
			span = max(span, outs[i].Done-phase)
		}
	}
	// Utilisation: the senders' busy share of that span, which bounds
	// the daemon's (it never holds more runs than there are senders).
	util := 100 * st.heavyBusy.Seconds() / (nproc * span.Seconds())
	fmt.Fprintf(b.log, "  heavy rate %.1f req/s: goodput %.1f req/s, senders busy %.0f%%, backlog max %d, mean %.2f then %.2f over the window's halves: %s\n",
		float64(heavy)/phase.Seconds(), float64(st.goodHeavy)/phase.Seconds(), util, maxB, first, second, verdict)
}
