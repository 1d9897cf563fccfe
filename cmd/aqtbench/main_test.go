package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sb "smallbuffers"
	"smallbuffers/internal/service"
)

func TestList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.txt")
	if err := run(context.Background(), []string{"-list", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, id := range []string{"F1", "E1", "E5", "E10"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f1.txt")
	if err := run(context.Background(), []string{"-run", "F1", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "virtual trajectory") {
		t.Errorf("F1 output missing trajectory:\n%s", data)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "E99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBadOutputPath(t *testing.T) {
	if err := run(context.Background(), []string{"-list", "-o", "/nonexistent-dir/x.txt"}); err == nil {
		t.Error("bad output path accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f1.json")
	if err := run(context.Background(), []string{"-run", "F1", "-json", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, data)
	}
	if !report.OK || len(report.Experiments) != 1 {
		t.Fatalf("unexpected report: %+v", report)
	}
	e := report.Experiments[0]
	if e.ID != "F1" || !e.OK || len(e.Tables) == 0 {
		t.Errorf("unexpected experiment record: %+v", e)
	}
	if len(e.Tables[0].Columns) == 0 || len(e.Tables[0].Rows) == 0 {
		t.Errorf("table not structured: %+v", e.Tables[0])
	}
}

func TestScenarioCorpusValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := run(context.Background(), []string{"-scenarios", "../../testdata/scenarios", "-validate", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "validated all") {
		t.Errorf("corpus validation incomplete:\n%s", data)
	}
}

func TestScenarioFileRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := run(context.Background(), []string{"-scenarios", "../../testdata/scenarios/e1-pts-burst.json", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"e1-pts-burst", "max load", "ok (1 cells)"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("scenario report missing %q:\n%s", want, data)
		}
	}
}

func TestScenarioBadPath(t *testing.T) {
	if err := run(context.Background(), []string{"-scenarios", "/nonexistent"}); err == nil {
		t.Error("bad scenarios path accepted")
	}
}

// TestScenariosAgainstServer replays a scenario against an in-process
// aqtserve and checks the report (including the cache-hit path on the
// second replay).
func TestScenariosAgainstServer(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(svc)
	defer func() {
		ts.Close()
		svc.Close()
	}()

	path := filepath.Join(t.TempDir(), "out.txt")
	args := []string{"-scenarios", "../../testdata/scenarios/e1-pts-burst.json", "-server", ts.URL, "-o", path}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"e1-pts-burst", "max load", "results sha256:", "simulated", "ran all 1 scenario files against"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("remote report missing %q:\n%s", want, data)
		}
	}

	// Second replay of the identical corpus is served from the cache.
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "served from cache") {
		t.Errorf("second replay not served from cache:\n%s", data)
	}
}

func TestServerFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-server", "http://localhost:1"},
		{"-scenarios", "../../testdata/scenarios", "-server", "http://x", "-validate"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
	}
	// An unreachable server is a runtime failure, not a hang.
	err := run(context.Background(), []string{"-scenarios", "../../testdata/scenarios/e1-pts-burst.json", "-server", "http://127.0.0.1:1"})
	if err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestScenarioFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-scenarios", "../../testdata/scenarios", "-json"},
		{"-scenarios", "../../testdata/scenarios", "-list"},
		{"-scenarios", "../../testdata/scenarios", "-run", "E1"},
		{"-scenarios", "../../testdata/scenarios", "-bandwidths", "9"},
		{"-validate"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("%v accepted, want flag-conflict error", args)
		}
	}
}

func TestJSONCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-run", "E1", "-json", "-o", filepath.Join(t.TempDir(), "x.json")}); err == nil {
		t.Error("cancelled context did not abort the run")
	}
}

// TestFleetDuplicateEndpoint: -fleet shares aqtctl's parser, which
// rejects a daemon listed twice before anything is dispatched.
func TestFleetDuplicateEndpoint(t *testing.T) {
	err := run(context.Background(), []string{"-scenarios", "../../testdata/scenarios/e1-pts-burst.json",
		"-fleet", "127.0.0.1:1,127.0.0.1:1", "-o", filepath.Join(t.TempDir(), "out.txt")})
	if err == nil || !strings.Contains(err.Error(), "duplicate fleet endpoint") {
		t.Fatalf("duplicate -fleet endpoint: err = %v", err)
	}
}

// TestScenarioStore drives -store end to end: the first run persists, the
// second is served from the store, and a bit-flipped segment is evicted
// and recomputed to the same digest.
func TestScenarioStore(t *testing.T) {
	const file = "../../testdata/scenarios/e1-pts-burst.json"
	root := t.TempDir()
	out := filepath.Join(t.TempDir(), "out.txt")
	runStore := func() string {
		t.Helper()
		if err := run(context.Background(), []string{"-scenarios", file, "-store", root, "-o", out}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	sc, err := sb.LoadScenarioFile(file)
	if err != nil {
		t.Fatal(err)
	}
	dig, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stored := "stored (results " + agg.Digest() + ")"

	if got := runStore(); strings.Contains(got, "stored") || !strings.Contains(got, "ok (1 cells)") {
		t.Fatalf("first run:\n%s", got)
	}
	if got, err := storedDigest(root, sc); err != nil || got != agg.Digest() {
		t.Fatalf("first run persisted digest %q (%v), want %s", got, err, agg.Digest())
	}
	if got := runStore(); !strings.Contains(got, stored) {
		t.Fatalf("second run not served from the store:\n%s", got)
	}

	segs, err := filepath.Glob(filepath.Join(sb.StoreEntryDir(root, dig), "seg-*.ndj"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no persisted segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(data), `"delivered"`)
	if at < 0 {
		t.Fatal("no payload byte to flip")
	}
	data[at+3] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runStore(); strings.Contains(got, "stored") || !strings.Contains(got, "ok (1 cells)") {
		t.Fatalf("corrupt entry served instead of recomputed:\n%s", got)
	}
	if got := runStore(); !strings.Contains(got, stored) {
		t.Fatalf("recomputed entry not served at the original digest:\n%s", got)
	}
}
