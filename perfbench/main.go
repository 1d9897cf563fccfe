// Command perfbench is the repository's benchmark: one program that runs
// a named workload from a seed, checks every output it produces against
// the paper's bounds and the pinned digests, and prints its metrics.
//
// Usage (from the repository root; run.sh builds and invokes it):
//
//	perfbench --workload hpts-dense --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the program measures untraced and reports the
// end-to-end metrics. With --trace 1 it runs the same work twice, once
// untraced and once with timing decorators around every layer it calls,
// and reports the per-layer metrics (BENCHMARK.json lists both sets).
// End-to-end timings are in host time: wall-clock time less the steal
// time /proc/stat reports (see hostclock.go).
// The last line of standard output is always one JSON object
// {"correct", "attempted", "failed", "metrics"}; a human-readable report
// goes to standard error. The exit code is non-zero when any check
// failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// nproc bounds every worker pool and connection count the benchmark
// uses, so the load never asks for more parallelism than the 2-core
// reference machine has.
const nproc = 2

// setupReps is how many times each workload sets itself up; setup_s is
// the median.
const setupReps = 5

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the --trace 0 metrics; every workload reports all of
// them. req_ms is the median time from sending one of the workload's
// requests to its completion; served-mixed sends 13 kinds (the corpus
// files) and sums their medians, the time of one cold pass over the
// corpus.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"rounds_per_s", "1/s"},
	{"hops_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"req_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the --trace 1 metrics; a layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"core.decide_ns_per_round", "ns"},
	{"core.share_pct", "%"},
	{"adversary.inject_ns_per_round", "ns"},
	{"adversary.verify_ns_per_round", "ns"},
	{"adversary.share_pct", "%"},
	{"sim.round_ns", "ns"},
	{"sim.round_ns.n1000", "ns"},
	{"sim.round_ns.n10000", "ns"},
	{"sim.self_ns_per_round", "ns"},
	{"sim.allocs_per_round", "count"},
	{"sim.bytes_per_round", "B"},
	{"metrics.collect_ns_per_round", "ns"},
	{"harness.cell_p50_ms", "ms"},
	{"harness.cell_p99_ms", "ms"},
	{"harness.cell_n", "count"},
	{"harness.overhead_pct", "%"},
	{"scenario.load_validate_us", "us"},
	{"scenario.compile_ms", "ms"},
	{"service.first_cell_ms", "ms"},
	{"service.in_flight_max", "count"},
	{"service.rejected", "count"},
	{"fleet.dispatches", "count"},
	{"fleet.retries", "count"},
	{"fleet.steals", "count"},
	{"fleet.wall_over_ideal", "ratio"},
	{"store.append_mb_per_s", "MiB/s"},
	{"store.open_verify_ms", "ms"},
	{"store.scan_mb_per_s", "MiB/s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_pct", "%"},
	{"req_p50_ms.light", "ms"},
	{"req_p99_ms.light", "ms"},
	{"req_n.light", "count"},
	{"req_p50_ms.heavy", "ms"},
	{"req_p99_ms.heavy", "ms"},
	{"req_n.heavy", "count"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"hit_n", "count"},
	{"goodput_rps.heavy", "1/s"},
	{"fleet_overhead_ratio", "ratio"},
	{"error_rate", "ratio"},
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root (holds testdata/)
	scratch  string // directory for temporary files, removed at exit
}

// bench accumulates one run's checks and metrics.
type bench struct {
	opt       options
	log       io.Writer
	attempted int
	failed    int
	metrics   map[string]float64
	// digests maps an operation key to the results digest its untraced
	// pass produced, so the traced pass can be compared byte for byte.
	digests map[string]string
}

func newBench(opt options, log io.Writer) *bench {
	return &bench{opt: opt, log: log, metrics: map[string]float64{}, digests: map[string]string{}}
}

// ops counts n attempted operations (cells, requests, checks).
func (b *bench) ops(n int) { b.attempted += n }

// fail records one failed operation or check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.log, "FAIL: "+format+"\n", args...)
}

// check counts one check and records its failure.
func (b *bench) check(ok bool, format string, args ...any) {
	b.ops(1)
	if !ok {
		b.fail(format, args...)
	}
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// noteDigest remembers the untraced digest of an operation, or compares
// the traced one against it. A mismatch is a failed check.
func (b *bench) noteDigest(traced bool, key, digest string) {
	if !traced {
		b.digests[key] = digest
		return
	}
	want, ok := b.digests[key]
	if !ok {
		return // the untraced pass did not get this far
	}
	b.check(want == digest, "traced digest of %s is %s, untraced %s", key, digest, want)
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"hpts-dense", runHPTSDense},
	{"path-sparse", runPathSparse},
	{"served-mixed", runServedMixed},
	{"fleet-sweep", runFleetSweep},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured seconds per pass")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	fs.StringVar(&opt.root, "root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	var wl *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	if _, err := os.Stat(filepath.Join(opt.root, "testdata", "corpus_digests.json")); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s is not the repository root: %v\n", opt.root, err)
		return 2
	}
	buildDir := filepath.Join(opt.root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: scratch dir: %v\n", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	opt.scratch = scratch

	b := newBench(opt, stderr)
	// A traced run makes two timed passes plus set-up, checks and
	// probes; the deadline leaves room for all of them at any --seconds.
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second+time.Duration(4*opt.seconds*float64(time.Second)))
	defer cancel()
	if err := wl.run(ctx, b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s attempted nothing\n", wl.name)
		return 1
	}
	b.set("error_rate", float64(b.failed)/float64(b.attempted))
	if err := b.report(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

// report prints the human-readable table to the log and the JSON result
// line to w.
func (b *bench) report(w io.Writer) error {
	specs := endToEnd
	if b.opt.trace {
		specs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(b.log, "%s seed=%d trace=%v: attempted %d, failed %d\n", b.opt.workload, b.opt.seed, b.opt.trace, b.attempted, b.failed)
	for _, s := range specs {
		v := b.metrics[s.name]
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(b.log, "  %-32s %14.4f %s\n", s.name, v, s.unit)
	}
	var extra []string
	for name := range b.metrics {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(b.log, "  (%s %.4f)\n", name, b.metrics[name])
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
