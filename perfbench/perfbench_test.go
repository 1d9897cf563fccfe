package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"smallbuffers/internal/adversary"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/sim"
)

// fakeProtocol and fakePhased cover both shapes of sim.Protocol the
// engine distinguishes.
type fakeProtocol struct{}

func (fakeProtocol) Name() string { return "fake" }
func (fakeProtocol) Attach(*network.Network, adversary.Bound, []network.NodeID) error {
	return nil
}
func (fakeProtocol) Decide(sim.View) ([]sim.Forward, error) { return nil, nil }

type fakePhased struct{ fakeProtocol }

func (fakePhased) PhaseLength() int { return 3 }

// The four adversary shapes: plain, hinter, adaptive, both.
type fakeAdv struct{}

func (fakeAdv) Bound() adversary.Bound        { return adversary.Bound{} }
func (fakeAdv) Inject(int) []packet.Injection { return []packet.Injection{{Src: 0, Dst: 1}} }

type fakeHinter struct{ fakeAdv }

func (fakeHinter) Destinations() []network.NodeID { return []network.NodeID{7} }

type fakeAdaptive struct{ fakeAdv }

func (fakeAdaptive) InjectAdaptive(round int, loads adversary.Loads) []packet.Injection {
	return []packet.Injection{{Src: network.NodeID(loads(0)), Dst: network.NodeID(round)}}
}

type fakeBoth struct{ fakeAdaptive }

func (fakeBoth) Destinations() []network.NodeID { return []network.NodeID{7} }

func TestDecoratorsForwardExactlyTheOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, p := range []sim.Protocol{fakeProtocol{}, fakePhased{}} {
		w := wrapProtocol(p, tr)
		_, want := p.(sim.PhasedAcceptor)
		got, ok := w.(sim.PhasedAcceptor)
		if ok != want {
			t.Errorf("%T: wrapped PhasedAcceptor = %v, want %v", p, ok, want)
		}
		if ok && got.PhaseLength() != 3 {
			t.Errorf("%T: wrapped PhaseLength = %d, want 3", p, got.PhaseLength())
		}
	}
	nw := network.MustPath(4)
	loads := func(network.NodeID) int { return 2 }
	for _, a := range []adversary.Adversary{fakeAdv{}, fakeHinter{}, fakeAdaptive{}, fakeBoth{}} {
		w := wrapAdversary(a, tr, nw)
		_, wantH := a.(adversary.DestinationHinter)
		h, gotH := w.(adversary.DestinationHinter)
		if gotH != wantH {
			t.Errorf("%T: wrapped DestinationHinter = %v, want %v", a, gotH, wantH)
		}
		if gotH && !reflect.DeepEqual(h.Destinations(), []network.NodeID{7}) {
			t.Errorf("%T: wrapped Destinations = %v", a, h.Destinations())
		}
		_, wantA := a.(adversary.Adaptive)
		ad, gotA := w.(adversary.Adaptive)
		if gotA != wantA {
			t.Errorf("%T: wrapped Adaptive = %v, want %v", a, gotA, wantA)
		}
		if gotA && !reflect.DeepEqual(ad.InjectAdaptive(5, loads), []packet.Injection{{Src: 2, Dst: 5}}) {
			t.Errorf("%T: wrapped InjectAdaptive does not forward", a)
		}
		if !reflect.DeepEqual(w.Inject(0), a.Inject(0)) {
			t.Errorf("%T: wrapped Inject does not forward", a)
		}
	}
}

// tracedDigest runs body through the harness, traced or not, and
// returns its results digest.
func tracedDigest(t *testing.T, body []byte, traced bool) string {
	t.Helper()
	sc, err := scenario.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = nproc
	tr := newTracer()
	if traced {
		tr.instrument(sw, "test")
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if traced {
		cells := tr.finishedCells()
		if len(cells) != len(res.Cells) {
			t.Fatalf("traced %d cells, ran %d", len(cells), len(res.Cells))
		}
		for _, ct := range cells {
			if ct.rounds != ct.cell.Rounds && ct.cell.Rounds > 0 {
				t.Errorf("cell %v: traced %d rounds", ct.cell, ct.rounds)
			}
		}
	}
	return res.Digest()
}

func TestTracedDigestsEqualUntraced(t *testing.T) {
	hd, err := hptsDenseSpec()
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{}
	for name, spec := range map[string]simSpec{"hpts-dense": hd, "path-sparse": pathSparseSpec()} {
		body, err := spec.requestBody(1, 0, 48)
		if err != nil {
			t.Fatal(err)
		}
		bodies[name] = body
	}
	fb, err := fleetBody(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(fb, &m); err != nil {
		t.Fatal(err)
	}
	m["seeds"] = m["seeds"].([]any)[:4]
	if bodies["fleet-sweep"], err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	for name, body := range bodies {
		if got, want := tracedDigest(t, body, true), tracedDigest(t, body, false); got != want {
			t.Errorf("%s: traced digest %s, untraced %s", name, got, want)
		}
	}
	// served-mixed replays the corpus: traced, every file must still
	// reproduce its pinned digest.
	files, err := loadCorpus("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if got := tracedDigest(t, f.body, true); got != f.pinned {
			t.Errorf("%s: traced digest %s, pinned %s", f.name, got, f.pinned)
		}
	}
}

func TestScheduleIsFixedBySeed(t *testing.T) {
	counts := []int{1, 3, 2, 1, 2}
	plan := loadPlan{light: 20, heavy: 40, phase: time.Second, coldEvery: 2}
	a := buildSchedule(7, counts, plan)
	if b := buildSchedule(7, counts, plan); !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if b := buildSchedule(8, counts, plan); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave equal schedules")
	}
	if len(a) != 60 {
		t.Fatalf("%d slots, want 60", len(a))
	}
	var cold []int
	for i, s := range a {
		wantDue := time.Duration(i) * plan.phase / 20
		if s.Heavy {
			wantDue = plan.phase + time.Duration(i-20)*plan.phase/40
		}
		if s.Heavy != (i >= 20) || s.Due != wantDue {
			t.Errorf("slot %d: heavy=%v due=%v, want heavy=%v due=%v", i, s.Heavy, s.Due, i >= 20, wantDue)
		}
		if s.Warm != (i%2 == 1) {
			t.Errorf("slot %d: warm=%v", i, s.Warm)
		}
		if !s.Warm {
			cold = append(cold, s.File)
			if len(s.Seeds) != counts[s.File] {
				t.Errorf("slot %d: %d seeds for a file with %d", i, len(s.Seeds), counts[s.File])
			}
		}
	}
	// Every full cycle of cold requests sends each file exactly once.
	for c := 0; c+len(counts) <= len(cold); c += len(counts) {
		seen := map[int]bool{}
		for _, f := range cold[c : c+len(counts)] {
			seen[f] = true
		}
		if len(seen) != len(counts) {
			t.Errorf("cold cycle at %d covers %d of %d files", c, len(seen), len(counts))
		}
	}
}

// fakeClock advances only when a sender sleeps or a request takes time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestLatencyRunsFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	ms := time.Millisecond
	slots := []slot{{Due: 0}, {Due: 10 * ms}, {Due: 20 * ms}, {Due: 100 * ms}}
	service := []time.Duration{25 * ms, 5 * ms, 5 * ms, 5 * ms}
	outs := runSchedule(context.Background(), clk, start, slots, 1, func(_ context.Context, i int) bool {
		clk.advance(service[i])
		return i != 3
	})
	// Slot 0 stalls the only sender until 25ms: slot 1 leaves 15ms late
	// and finishes at 30ms, slot 2 leaves at 30ms and finishes at 35ms.
	want := []outcome{
		{Sent: true, OK: true, Lag: 0, Latency: 25 * ms, Done: 25 * ms},
		{Sent: true, OK: true, Lag: 15 * ms, Latency: 20 * ms, Done: 30 * ms},
		{Sent: true, OK: true, Lag: 10 * ms, Latency: 15 * ms, Done: 35 * ms},
		{Sent: true, OK: false, Lag: 0, Latency: 5 * ms, Done: 105 * ms},
	}
	if !reflect.DeepEqual(outs, want) {
		t.Fatalf("outcomes\n got %+v\nwant %+v", outs, want)
	}
	// Over [0,50ms) the backlog is 1 until 10ms, 2 until 20ms and 3
	// until 25ms (mean 1.8 over the first half), then 2, 1 and 0 from
	// 25, 30 and 35ms (mean 0.6 over the second).
	maxB, first, second := backlog(slots, outs, 0, 50*ms)
	if maxB != 3 || first != 1.8 || second != 0.6 {
		t.Errorf("backlog max %d, halves %v and %v; want 3, 1.8 and 0.6", maxB, first, second)
	}
}

func TestBenchmarkJSONListsWhatTheProgramReports(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, list := range []struct {
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(list.json) != len(list.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(list.json), len(list.specs))
			continue
		}
		for i, m := range list.json {
			if m.Name != list.specs[i].name || m.Unit != list.specs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, list.specs[i].name, list.specs[i].unit)
			}
		}
	}
}

func TestOutsideARepositoryItFailsWithoutAResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "hpts-dense", "--seed", "1", "--seconds", "1", "--trace", "0", "--root", t.TempDir()}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "repository root") {
		t.Errorf("stderr %q does not explain the failure", stderr.String())
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestLayersJSONMapsEveryPerLayerMetric(t *testing.T) {
	var doc struct {
		Layers []struct {
			Metrics []string
			Moves   []struct {
				Metric    string
				Workloads []string
			}
		}
	}
	if err := json.Unmarshal(layersJSON, &doc); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	names := map[string]bool{}
	for _, w := range workloads {
		names[w.name] = true
		if expectedLargest(w.name) == "" {
			t.Errorf("layers.json has no expected split for %s", w.name)
		}
	}
	seen := map[string]int{}
	for _, l := range doc.Layers {
		for _, m := range l.Metrics {
			seen[m]++
		}
		for _, mv := range l.Moves {
			if !e2e[mv.Metric] {
				t.Errorf("layers.json maps to %q, not an end-to-end metric", mv.Metric)
			}
			for _, w := range mv.Workloads {
				if !names[w] {
					t.Errorf("layers.json names unknown workload %q", w)
				}
			}
		}
	}
	for _, m := range perLayer {
		if seen[m.name] != 1 {
			t.Errorf("per-layer metric %s appears %d times in layers.json", m.name, seen[m.name])
		}
		delete(seen, m.name)
	}
	for m := range seen {
		t.Errorf("layers.json lists %s, which the program does not report", m)
	}
}

func TestHostTimeExcludesSteal(t *testing.T) {
	t0 := time.Unix(1000, 0)
	a := stamp{wall: t0, steal: 2 * time.Second}
	if got := a.to(stamp{wall: t0.Add(time.Second), steal: 2300 * time.Millisecond}); got != 700*time.Millisecond {
		t.Errorf("1s of wall with 300ms stolen = %v host time, want 700ms", got)
	}
	if got := a.to(stamp{wall: t0.Add(time.Second), steal: 4 * time.Second}); got != 0 {
		t.Errorf("host time %v, want it clamped at 0", got)
	}
	if s := stolen(); s < 0 {
		t.Errorf("stolen() = %v", s)
	}
}
