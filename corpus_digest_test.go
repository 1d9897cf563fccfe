package smallbuffers_test

// Corpus digest gate: every scenario file in testdata/scenarios/ must
// reproduce the results digest pinned in testdata/corpus_digests.json on
// every execution path — a local run, a cold run on a daemon with an SSE
// stream follower and a /live poller attached, the daemon's cached
// answer to a repeat submission, and a fleet run sharded over three
// daemons. The pre-fault entries were captured before the fault
// subsystem landed, so this test is the executable form of the
// zero-fault compatibility contract — scenarios without a faults axis
// stay byte-identical, record for record, digest for digest. New or
// intentionally changed scenarios regenerate their entry with:
//
//	go run ./cmd/aqtsim -scenario testdata/scenarios/<file> -result-digest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	sb "smallbuffers"
)

// corpusChecks are the per-file assertions beyond digest identity. Each
// gets the finished report of the observed cold run and the run's final
// live view.
var corpusChecks = map[string]func(t *testing.T, rep sb.ServerReport, view sb.LiveView){
	"metrics-full.json": func(t *testing.T, rep sb.ServerReport, _ sb.LiveView) {
		const want = "latency,link_util_series,load_hist,load_series,max_load"
		if got := metricNames(rep.Summary.Metrics); got != want {
			t.Errorf("summary metrics %q, want %q", got, want)
		}
	},
	"faults-lossy.json": func(t *testing.T, rep sb.ServerReport, _ sb.LiveView) {
		if rep.Summary.DroppedTotal <= 0 {
			t.Errorf("summary.dropped_total = %d, want > 0 for a lossy grid", rep.Summary.DroppedTotal)
		}
	},
	"e13-live-window.json": func(t *testing.T, _ sb.ServerReport, view sb.LiveView) {
		const want = "delivery,goodput_window,window_load"
		if got := metricNames(view.Metrics); got != want {
			t.Errorf("live view metrics %q, want %q", got, want)
		}
	},
}

func TestCorpusDigestsPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "corpus_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("corpus has %d scenario files but %d pinned digests — regenerate testdata/corpus_digests.json", len(files), len(want))
	}
	for name := range corpusChecks {
		if _, ok := want[name]; !ok {
			t.Errorf("corpusChecks names %s, which has no pinned digest", name)
		}
	}

	// Sweep-worker parallelism inside the daemon must not change a digest.
	served := startDaemon(t, sb.ServerConfig{SweepWorkers: 3})
	fleet := make([]string, 3)
	for i := range fleet {
		fleet[i] = strings.TrimPrefix(startDaemon(t, sb.ServerConfig{Workers: 2}), "http://")
	}

	// Every repeat POST — one per file, or per selected file under -run —
	// must be answered from the cache, none re-simulated. Cleanups run
	// after the parallel subtests finish, and this one before the daemons
	// registered above shut down.
	var repeats atomic.Int64
	t.Cleanup(func() {
		if got, want := cachedRuns(t, served), repeats.Load(); int64(got) != want {
			t.Errorf("aqtserve_runs_cached_total = %d, want %d", got, want)
		}
	})
	for _, file := range files {
		name := filepath.Base(file)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pinned, ok := want[name]
			if !ok {
				t.Fatalf("no pinned digest for %s — add it to testdata/corpus_digests.json", name)
			}
			check := func(path, got string) {
				t.Helper()
				if got != pinned {
					t.Errorf("%s results digest drifted:\n got %s\nwant %s\nIf the change is intentional, regenerate the pinned entry; if not, the simulation semantics changed.", path, got, pinned)
				}
			}
			body, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sb.ParseScenario(body)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := sc.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			check("local", sb.SweepResultsDigest(agg.Records()))

			rep, streamed, view := observedRun(t, served, body)
			check("served", rep.ResultsDigest)
			check("streamed", streamed.ResultsDigest)

			code, again := submit(t, served, body)
			repeats.Add(1)
			if code != http.StatusOK || !again.Cached {
				t.Errorf("repeat POST: %d, cached %v; want a 200 cache hit", code, again.Cached)
			}
			check("cached", again.ResultsDigest)

			res, err := sb.RunFleet(context.Background(), sb.FleetConfig{Endpoints: fleet}, sc)
			if err != nil {
				t.Fatalf("fleet run: %v", err)
			}
			check("fleet", res.Summary.ResultsDigest)

			if extra := corpusChecks[name]; extra != nil {
				extra(t, rep, view)
			}
		})
	}
}

// startDaemon serves an in-process daemon for the test's lifetime and
// returns its base URL.
func startDaemon(t *testing.T, cfg sb.ServerConfig) string {
	t.Helper()
	srv := sb.NewServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// submit POSTs a scenario body and waits for the report.
func submit(t *testing.T, base string, body []byte) (int, sb.ServerReport) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep sb.ServerReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rep
}

// observedRun submits body detached (?wait=0) and watches the run the
// way a dashboard does: an SSE follower reads the stream to its summary
// event while a poller reads /live until the view says the run is done.
// It returns the finished run's report, the stream's summary event and
// the final live view.
func observedRun(t *testing.T, base string, body []byte) (rep, streamed sb.ServerReport, view sb.LiveView) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs?wait=0", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted sb.ServerReport
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || accepted.Cached {
		t.Fatalf("detached POST: %d %+v (%v); want a 202 cold run", resp.StatusCode, accepted, err)
	}
	runURL := base + "/v1/runs/" + accepted.ID

	var pollErr error
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		view, pollErr = pollLive(runURL + "/live")
	}()
	defer func() { <-polled }()

	req, err := http.NewRequest(http.MethodGet, runURL+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var summary string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	for event := ""; sc.Scan(); {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
		} else if d, ok := strings.CutPrefix(line, "data: "); ok && event == "summary" {
			summary = d
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE stream: %v", err)
	}
	if err := json.Unmarshal([]byte(summary), &streamed); err != nil {
		t.Fatalf("SSE stream ended without a summary event: %v", err)
	}

	<-polled
	if pollErr != nil {
		t.Fatal(pollErr)
	}
	if view.Status != "done" {
		t.Fatalf("live view ended in status %q, want done", view.Status)
	}
	resp, err = http.Get(runURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "done" || rep.Summary == nil {
		t.Fatalf("observed run ended in status %q (%s), want done with a summary", rep.Status, rep.Error)
	}
	return rep, streamed, view
}

// pollLive reads a run's live view until it reports the run finished.
func pollLive(url string) (sb.LiveView, error) {
	var v sb.LiveView
	for v.Status != "done" && v.Status != "cancelled" {
		resp, err := http.Get(url)
		if err != nil {
			return v, err
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return v, fmt.Errorf("GET %s: %d (%v)", url, resp.StatusCode, err)
		}
		time.Sleep(time.Millisecond)
	}
	return v, nil
}

// cachedRuns reads the daemon's aqtserve_runs_cached_total counter.
func cachedRuns(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "aqtserve_runs_cached_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("aqtserve_runs_cached_total %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatal("aqtserve_runs_cached_total not exposed")
	return 0
}

// metricNames lists summary names sorted and comma-joined.
func metricNames(sums []sb.MetricSummary) string {
	names := make([]string, len(sums))
	for i, s := range sums {
		names[i] = s.Name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
