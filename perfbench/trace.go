package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/harness"
	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/sim"
)

// span is one timed interval at a layer boundary. Spans of one request
// share ID; Parent names the enclosing span's Name ("" for the root).
type span struct {
	ID     string    `json:"id"`
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// cellTrace holds one cell's per-round phase counters. Every field
// except start/end is written only from the goroutine running the cell,
// so the hot path takes no lock.
type cellTrace struct {
	sim.NopObserver
	cell     harness.Cell
	nodes    int
	start    time.Time // topology build began
	end      time.Time // last round ended (or the record reached the sink)
	first    time.Time // first injection call began
	last     time.Time // last round ended
	rounds   int
	decide   time.Duration
	inject   time.Duration
	collect  time.Duration
	finished bool
}

// OnRoundEnd implements sim.Observer: it closes the round.
func (ct *cellTrace) OnRoundEnd(int, sim.View) {
	ct.last = time.Now()
	ct.rounds++
}

// busy is the time from the first injection to the end of the last
// round: the engine's whole run loop.
func (ct *cellTrace) busy() time.Duration {
	if ct.first.IsZero() || ct.last.Before(ct.first) {
		return 0
	}
	return ct.last.Sub(ct.first)
}

// tracer instruments sweeps from outside: it wraps the factories of a
// harness.Sweep so every protocol, adversary and selected metric
// collector it builds is a timing decorator, adds an observer that
// closes rounds, and wraps the record sink to close cells. Decorators
// find their cell's counters through the network the cell was built on.
type tracer struct {
	mu      sync.Mutex
	pending map[*network.Network]time.Time  // topology built, cell not yet bound
	byNet   map[*network.Network]*cellTrace // cells in flight
	byIndex map[string]*cellTrace           // reqID/index → cell in flight
	cells   []*cellTrace
	spans   []span
}

func newTracer() *tracer {
	return &tracer{
		pending: map[*network.Network]time.Time{},
		byNet:   map[*network.Network]*cellTrace{},
		byIndex: map[string]*cellTrace{},
	}
}

// addSpan records a finished span.
func (tr *tracer) addSpan(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// lookup returns the in-flight cell built on nw, if any.
func (tr *tracer) lookup(nw *network.Network) *cellTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.byNet[nw]
}

// instrument wraps sw's factories and hooks for one request. The sweep
// computes exactly what it computed before: decorators only time calls
// and forward them.
func (tr *tracer) instrument(sw *harness.Sweep, reqID string) {
	for i := range sw.Topologies {
		orig := sw.Topologies[i].New
		sw.Topologies[i].New = func() (*network.Network, error) {
			t0 := time.Now()
			nw, err := orig()
			if err == nil {
				tr.mu.Lock()
				tr.pending[nw] = t0
				tr.mu.Unlock()
			}
			return nw, err
		}
	}
	for i := range sw.Protocols {
		orig := sw.Protocols[i].New
		sw.Protocols[i].New = func() (sim.Protocol, error) {
			p, err := orig()
			if err != nil {
				return nil, err
			}
			return wrapProtocol(p, tr), nil
		}
	}
	for i := range sw.Adversaries {
		orig := sw.Adversaries[i].New
		sw.Adversaries[i].New = func(nw *network.Network, b adversary.Bound, seed int64, rounds int) (adversary.Adversary, error) {
			a, err := orig(nw, b, seed, rounds)
			if err != nil {
				return nil, err
			}
			return wrapAdversary(a, tr, nw), nil
		}
	}
	prevObs := sw.Observers
	sw.Observers = func(c harness.Cell, nw *network.Network) []sim.Observer {
		var obs []sim.Observer
		if prevObs != nil {
			obs = prevObs(c, nw)
		}
		return append(obs, tr.begin(reqID, c, nw))
	}
	if prevMetrics := sw.Metrics; prevMetrics != nil {
		sw.Metrics = func(c harness.Cell, nw *network.Network) ([]metrics.Collector, error) {
			cs, err := prevMetrics(c, nw)
			if err != nil {
				return nil, err
			}
			ct := tr.lookup(nw)
			for i, col := range cs {
				cs[i] = wrapCollector(col, ct)
			}
			return cs, nil
		}
	}
	prevSink := sw.Sink
	sw.Sink = sinkFunc(func(rec harness.CellRecord) error {
		tr.finish(reqID, rec.Index)
		if prevSink != nil {
			return prevSink.Append(rec)
		}
		return nil
	})
}

// begin binds a cell to the network it was built on.
func (tr *tracer) begin(reqID string, c harness.Cell, nw *network.Network) *cellTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	start, ok := tr.pending[nw]
	if ok {
		delete(tr.pending, nw)
	} else {
		start = time.Now()
	}
	ct := &cellTrace{cell: c, nodes: nw.Len(), start: start}
	tr.byNet[nw] = ct
	tr.byIndex[fmt.Sprintf("%s/%d", reqID, c.Index)] = ct
	tr.cells = append(tr.cells, ct)
	return ct
}

// finish closes the cell whose record the sink received.
func (tr *tracer) finish(reqID string, index int) {
	end := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	key := fmt.Sprintf("%s/%d", reqID, index)
	ct, ok := tr.byIndex[key]
	if !ok {
		return
	}
	delete(tr.byIndex, key)
	for nw, c := range tr.byNet {
		if c == ct {
			delete(tr.byNet, nw)
		}
	}
	// The cell's work ends with its last round, on its worker; the sink
	// runs later on the aggregating goroutine, which may wait for a CPU
	// while both workers are busy.
	if ct.rounds > 0 && ct.last.Before(end) {
		end = ct.last
	}
	ct.end = end
	ct.finished = true
	tr.spans = append(tr.spans, span{ID: reqID, Name: fmt.Sprintf("cell/%d", index), Parent: "sweep", Start: ct.start, End: end})
}

// finishedCells returns the cells whose records reached the sink.
func (tr *tracer) finishedCells() []*cellTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []*cellTrace
	for _, ct := range tr.cells {
		if ct.finished {
			out = append(out, ct)
		}
	}
	return out
}

// writeSpans writes every recorded span as one JSON line each.
func (tr *tracer) writeSpans(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type sinkFunc func(harness.CellRecord) error

func (f sinkFunc) Append(rec harness.CellRecord) error { return f(rec) }

// tracedProtocol times Decide. It binds to its cell at Attach, which the
// engine calls after the sweep has built the cell's observers.
type tracedProtocol struct {
	inner sim.Protocol
	tr    *tracer
	ct    *cellTrace
}

// tracedPhasedProtocol additionally forwards sim.PhasedAcceptor.
type tracedPhasedProtocol struct {
	*tracedProtocol
	phased sim.PhasedAcceptor
}

func (p tracedPhasedProtocol) PhaseLength() int { return p.phased.PhaseLength() }

// wrapProtocol decorates p, exposing sim.PhasedAcceptor exactly when p
// implements it.
func wrapProtocol(p sim.Protocol, tr *tracer) sim.Protocol {
	tp := &tracedProtocol{inner: p, tr: tr}
	if pa, ok := p.(sim.PhasedAcceptor); ok {
		return tracedPhasedProtocol{tp, pa}
	}
	return tp
}

func (p *tracedProtocol) Name() string { return p.inner.Name() }

func (p *tracedProtocol) Attach(nw *network.Network, bound adversary.Bound, dests []network.NodeID) error {
	p.ct = p.tr.lookup(nw)
	return p.inner.Attach(nw, bound, dests)
}

func (p *tracedProtocol) Decide(v sim.View) ([]sim.Forward, error) {
	if p.ct == nil {
		return p.inner.Decide(v)
	}
	t0 := time.Now()
	fw, err := p.inner.Decide(v)
	p.ct.decide += time.Now().Sub(t0)
	return fw, err
}

// tracedAdversary times Inject and InjectAdaptive. The optional
// interfaces the engine type-asserts (adversary.DestinationHinter,
// adversary.Adaptive) are forwarded by the variants below exactly when
// the wrapped adversary implements them.
type tracedAdversary struct {
	inner adversary.Adversary
	tr    *tracer
	nw    *network.Network
	ct    *cellTrace
}

func (a *tracedAdversary) Bound() adversary.Bound { return a.inner.Bound() }

// cellTrace binds lazily: the adversary is built before the cell's
// observers are.
func (a *tracedAdversary) cellTrace() *cellTrace {
	if a.ct == nil {
		a.ct = a.tr.lookup(a.nw)
	}
	return a.ct
}

func (a *tracedAdversary) timed(f func() []packet.Injection) []packet.Injection {
	ct := a.cellTrace()
	if ct == nil {
		return f()
	}
	t0 := time.Now()
	injs := f()
	ct.inject += time.Now().Sub(t0)
	if ct.first.IsZero() {
		ct.first = t0
	}
	return injs
}

func (a *tracedAdversary) Inject(round int) []packet.Injection {
	return a.timed(func() []packet.Injection { return a.inner.Inject(round) })
}

type tracedHinter struct {
	*tracedAdversary
	h adversary.DestinationHinter
}

func (a tracedHinter) Destinations() []network.NodeID { return a.h.Destinations() }

type tracedAdaptive struct {
	*tracedAdversary
	ad adversary.Adaptive
}

func (a tracedAdaptive) InjectAdaptive(round int, loads adversary.Loads) []packet.Injection {
	return a.timed(func() []packet.Injection { return a.ad.InjectAdaptive(round, loads) })
}

type tracedAdaptiveHinter struct {
	tracedAdaptive
	h adversary.DestinationHinter
}

func (a tracedAdaptiveHinter) Destinations() []network.NodeID { return a.h.Destinations() }

// wrapAdversary decorates a, exposing adversary.DestinationHinter and
// adversary.Adaptive exactly when a implements them.
func wrapAdversary(a adversary.Adversary, tr *tracer, nw *network.Network) adversary.Adversary {
	ta := &tracedAdversary{inner: a, tr: tr, nw: nw}
	h, isHinter := a.(adversary.DestinationHinter)
	ad, isAdaptive := a.(adversary.Adaptive)
	switch {
	case isHinter && isAdaptive:
		return tracedAdaptiveHinter{tracedAdaptive{ta, ad}, h}
	case isAdaptive:
		return tracedAdaptive{ta, ad}
	case isHinter:
		return tracedHinter{ta, h}
	default:
		return ta
	}
}

// tracedCollector times every hook of a scenario-selected collector.
type tracedCollector struct {
	inner metrics.Collector
	ct    *cellTrace
}

// wrapCollector decorates c. The engine type-asserts the max_load and
// latency collectors to source Result's scalar fields, so those two stay
// undecorated (their time counts as the engine's own) and the engine's
// behaviour is unchanged.
func wrapCollector(c metrics.Collector, ct *cellTrace) metrics.Collector {
	switch c.(type) {
	case *metrics.MaxLoadCollector, *metrics.LatencyCollector:
		return c
	}
	if ct == nil {
		return c
	}
	return &tracedCollector{inner: c, ct: ct}
}

func (c *tracedCollector) Name() string { return c.inner.Name() }

func (c *tracedCollector) OnInject(round int, injs []metrics.Injection) {
	t0 := time.Now()
	c.inner.OnInject(round, injs)
	c.ct.collect += time.Now().Sub(t0)
}

func (c *tracedCollector) OnSample(round int, p metrics.Point, v metrics.View) {
	t0 := time.Now()
	c.inner.OnSample(round, p, v)
	c.ct.collect += time.Now().Sub(t0)
}

func (c *tracedCollector) OnForward(round int, moves []metrics.Move) {
	t0 := time.Now()
	c.inner.OnForward(round, moves)
	c.ct.collect += time.Now().Sub(t0)
}

func (c *tracedCollector) OnRoundEnd(round int, v metrics.View) {
	t0 := time.Now()
	c.inner.OnRoundEnd(round, v)
	c.ct.collect += time.Now().Sub(t0)
}

func (c *tracedCollector) Summarize() metrics.Summary { return c.inner.Summarize() }

// layerSplit sums the per-round phase counters of finished cells.
type layerSplit struct {
	rounds  int
	busy    time.Duration
	decide  time.Duration
	inject  time.Duration
	collect time.Duration
	// byNodes sums busy time and rounds per topology size, for the
	// per-size round cost.
	byNodes map[int][2]float64
}

func splitOf(cells []*cellTrace) layerSplit {
	ls := layerSplit{byNodes: map[int][2]float64{}}
	for _, ct := range cells {
		ls.rounds += ct.rounds
		ls.busy += ct.busy()
		ls.decide += ct.decide
		ls.inject += ct.inject
		ls.collect += ct.collect
		acc := ls.byNodes[ct.nodes]
		acc[0] += float64(ct.busy())
		acc[1] += float64(ct.rounds)
		ls.byNodes[ct.nodes] = acc
	}
	return ls
}

// perRound returns d's nanoseconds per round of the split.
func (ls layerSplit) perRound(d time.Duration) float64 {
	return ratio(float64(d), float64(ls.rounds))
}

// roundNsAt returns the mean round cost on topologies of n nodes.
func (ls layerSplit) roundNsAt(n int) float64 {
	acc := ls.byNodes[n]
	return ratio(acc[0], acc[1])
}

// report sets the core/adversary/sim/metrics per-round metrics. verifyNs
// is the separately measured per-round cost of adversary verification,
// which runs inside the engine's round and so is carved out of its self
// time.
func (ls layerSplit) report(b *bench, verifyNs float64) {
	round := ls.perRound(ls.busy)
	decide := ls.perRound(ls.decide)
	inject := ls.perRound(ls.inject)
	collect := ls.perRound(ls.collect)
	if verifyNs < 0 {
		verifyNs = 0
	}
	self := round - decide - inject - collect - verifyNs
	b.set("sim.round_ns", round)
	b.set("sim.round_ns.n1000", ls.roundNsAt(1000))
	b.set("sim.round_ns.n10000", ls.roundNsAt(10000))
	b.set("core.decide_ns_per_round", decide)
	b.set("adversary.inject_ns_per_round", inject)
	b.set("adversary.verify_ns_per_round", verifyNs)
	b.set("metrics.collect_ns_per_round", collect)
	b.set("sim.self_ns_per_round", self)
	b.set("core.share_pct", 100*ratio(decide, round))
	b.set("adversary.share_pct", 100*ratio(inject+verifyNs, round))
	shares := map[string]float64{"core": decide, "adversary": inject + verifyNs, "sim": self, "metrics": collect}
	largest := ""
	for _, name := range []string{"core", "adversary", "sim", "metrics"} {
		if largest == "" || shares[name] > shares[largest] {
			largest = name
		}
	}
	fmt.Fprintf(b.log, "  layer split per round: core %.0f ns, adversary %.0f+%.0f ns, metrics %.0f ns, sim self %.0f ns of %.0f ns (largest: %s)\n",
		decide, inject, verifyNs, collect, self, round, largest)
	if want := expectedLargest(b.opt.workload); largest != want {
		fmt.Fprintf(b.log, "NOTE: largest traced layer is %s; perfbench/layers.json expects %s\n", largest, want)
	}
}

//go:embed layers.json
var layersJSON []byte

// expectedLargest returns the layer perfbench/layers.json expects to
// dominate the workload's traced split.
func expectedLargest(workload string) string {
	var doc struct {
		ExpectedSplit map[string]struct{ Largest string } `json:"expected_split"`
	}
	if err := json.Unmarshal(layersJSON, &doc); err != nil {
		panic(fmt.Sprintf("embedded layers.json: %v", err)) // a broken build input, not a run-time condition
	}
	return doc.ExpectedSplit[workload].Largest
}

// cellStats reports the harness per-cell latency and overhead from the
// traced cells of sweeps that together took wall × workers of pool time.
func cellStats(b *bench, cells []*cellTrace, poolTime time.Duration) {
	var lat []float64
	var sum time.Duration
	for _, ct := range cells {
		d := ct.end.Sub(ct.start)
		lat = append(lat, ms(d))
		sum += d
	}
	b.set("harness.cell_p50_ms", percentile(lat, 50))
	b.set("harness.cell_p99_ms", percentile(lat, 99))
	b.set("harness.cell_n", float64(len(lat)))
	if poolTime > 0 {
		b.set("harness.overhead_pct", 100*float64(poolTime-sum)/float64(poolTime))
	}
}
