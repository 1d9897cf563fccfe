package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	sb "smallbuffers"
	"smallbuffers/internal/baseline"
	"smallbuffers/internal/scenario"
	"smallbuffers/internal/service"
)

// runAsAqtctl, when set in a test binary's environment, makes the
// binary run as aqtctl itself instead of as the test runner, so a test
// can start a real coordinator process without building one.
const runAsAqtctl = "AQTCTL_TEST_RUN_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsAqtctl) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A test-only protocol that sleeps every round, so a sweep stays in
// flight long enough for a kill to land mid-sweep. The sleep changes
// wall time only, never results.
func init() {
	err := sb.RegisterProtocol(sb.RegistryProtocol{
		Name: "aqtctl-slow-fifo",
		Doc:  "test-only: greedy FIFO sleeping 2ms per round",
		Build: func(sb.RegistryParams) (sb.Protocol, error) {
			return slowProto{sb.NewGreedy(baseline.FIFO{})}, nil
		},
	})
	if err != nil {
		panic(err)
	}
}

type slowProto struct{ sb.Protocol }

func (p slowProto) Decide(v sb.View) ([]sb.Forward, error) {
	time.Sleep(2 * time.Millisecond)
	return p.Protocol.Decide(v)
}

func startDaemons(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		svc := service.New(service.Config{Workers: 2, SweepWorkers: 2})
		ts := httptest.NewServer(svc)
		t.Cleanup(func() {
			ts.Close()
			svc.Close()
		})
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	return addrs
}

func writeScenario(t *testing.T) string {
	t.Helper()
	src := `{
		"name": "aqtctl-grid",
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": [30, 60],
		"seeds": [1, 2, 3]
	}`
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAqtctlEndToEnd drives the CLI against an in-process 2-daemon
// fleet: -result-digest must print exactly the local digest, and the
// human summary must report every cell.
func TestAqtctlEndToEnd(t *testing.T) {
	addrs := startDaemons(t, 2)
	scPath := writeScenario(t)

	data, err := os.ReadFile(scPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Digest()

	var stdout, stderr bytes.Buffer
	args := []string{
		"-fleet", strings.Join(addrs, ","),
		"-scenario", scPath,
		"-verify-local",
		"-result-digest",
	}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("aqtctl: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != want {
		t.Fatalf("-result-digest printed %q, local digest %s", got, want)
	}

	// Human summary via a fleet file.
	fleetFile := filepath.Join(t.TempDir(), "fleet.txt")
	if err := os.WriteFile(fleetFile, []byte("# test fleet\n"+strings.Join(addrs, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run(context.Background(), []string{"-fleet", "@" + fleetFile, "-scenario", scPath, "-q"}, &stdout, &stderr); err != nil {
		t.Fatalf("aqtctl summary: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "6 requested, 6 completed, 0 failed") {
		t.Errorf("summary missing cell counts:\n%s", out)
	}
	if !strings.Contains(out, want) {
		t.Errorf("summary missing digest:\n%s", out)
	}
}

func TestParseFleet(t *testing.T) {
	eps, err := sb.ParseFleetEndpoints("a:1, b:2,,")
	if err != nil || len(eps) != 2 || eps[0] != "a:1" || eps[1] != "b:2" {
		t.Errorf("ParseFleetEndpoints = %v, %v", eps, err)
	}
	if _, err := sb.ParseFleetEndpoints("a:1,a:1"); err == nil {
		t.Error("duplicate endpoints accepted")
	}
	if _, err := sb.ParseFleetEndpoints(",,"); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := sb.ParseFleetEndpoints("@/nonexistent/fleet.txt"); err == nil {
		t.Error("missing fleet file accepted")
	}
}

func TestAqtctlFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "x.json"}, &out, &out); err == nil {
		t.Error("missing -fleet accepted")
	}
	if err := run(context.Background(), []string{"-fleet", "a:1"}, &out, &out); err == nil {
		t.Error("missing -scenario accepted")
	}
	if err := run(context.Background(), []string{"-fleet", "a:1", "-live", "-scenario", "x.json"}, &out, &out); err == nil {
		t.Error("-live with -scenario accepted")
	}
}

// TestAqtctlLiveOnce exercises the monitor mode against an idle fleet:
// one snapshot, every daemon shown, and a clean exit.
func TestAqtctlLiveOnce(t *testing.T) {
	addrs := startDaemons(t, 2)
	var stdout, stderr bytes.Buffer
	args := []string{"-fleet", strings.Join(addrs, ","), "-live", "-once"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("aqtctl -live -once: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "0 runs in flight") {
		t.Errorf("missing fleet line:\n%s", out)
	}
	for _, a := range addrs {
		if !strings.Contains(out, a) {
			t.Errorf("daemon %s missing from snapshot:\n%s", a, out)
		}
	}
	if !strings.Contains(out, "idle") {
		t.Errorf("idle daemons not marked idle:\n%s", out)
	}
}

// TestResumeAfterCoordinatorKill SIGKILLs an aqtctl -store coordinator
// mid-sweep, in a real child process, as soon as one merged cell is
// durable on disk. A rerun must refuse the partial entry without
// -resume, and with -resume finish it to exactly the local digest.
func TestResumeAfterCoordinatorKill(t *testing.T) {
	fleet := strings.Join(startDaemons(t, 3), ",")
	seeds := make([]string, 96)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	src := fmt.Sprintf(`{
		"name": "resume-kill",
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "aqtctl-slow-fifo"},
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 20,
		"seeds": [%s]
	}`, strings.Join(seeds, ", "))
	scPath := filepath.Join(t.TempDir(), "resume-kill.json")
	if err := os.WriteFile(scPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	args := []string{"-fleet", fleet, "-scenario", scPath, "-store", storeDir,
		"-backoff", "50ms", "-backoff-max", "500ms", "-result-digest"}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	child := exec.Command(exe, append(args, "-q")...)
	child.Env = append(os.Environ(), runAsAqtctl+"=1")
	var childOut, childErr bytes.Buffer
	child.Stdout, child.Stderr = &childOut, &childErr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- child.Wait() }()

	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	deadline := time.After(time.Minute)
	for !hasDurableCell(t, storeDir) {
		select {
		case err := <-exited:
			t.Fatalf("aqtctl exited (%v) before any cell was durable; grow the workload\nstdout:\n%s\nstderr:\n%s", err, childOut.String(), childErr.String())
		case <-deadline:
			child.Process.Kill()
			<-exited
			t.Fatalf("no cell durable within a minute\nstderr:\n%s", childErr.String())
		case <-poll.C:
		}
	}
	killErr := child.Process.Kill()
	<-exited
	if killErr != nil || child.ProcessState.ExitCode() != -1 {
		t.Fatalf("aqtctl finished (%v, exit %d) before the kill landed; grow the workload\nstdout:\n%s\nstderr:\n%s",
			killErr, child.ProcessState.ExitCode(), childOut.String(), childErr.String())
	}

	sc, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	dig, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sb.OpenResultStore(storeDir, dig, sb.CellIndexRange{Lo: 0, Hi: len(seeds)}, sb.ResultStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	durable := st.Count()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if durable == 0 || durable == len(seeds) {
		t.Fatalf("%d of %d cells durable after the kill, want a partial entry; grow the workload", durable, len(seeds))
	}

	var stdout, stderr bytes.Buffer
	err = run(context.Background(), append(args, "-q"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("rerun without -resume: err %v, want a refusal naming -resume", err)
	}

	stdout.Reset()
	stderr.Reset()
	if err := run(context.Background(), append(args, "-resume"), &stdout, &stderr); err != nil {
		t.Fatalf("rerun with -resume: %v\nstderr:\n%s", err, stderr.String())
	}
	sw, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = 16 // the cells mostly sleep; overlap them
	agg, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(stdout.String()), agg.Digest(); got != want {
		t.Errorf("resumed digest %s, local %s", got, want)
	}
	if !strings.Contains(stderr.String(), "resuming") {
		t.Errorf("resumed run never reported resuming:\n%s", stderr.String())
	}
}

// hasDurableCell reports whether any segment of the store holds a
// complete record line.
func hasDurableCell(t *testing.T, storeDir string) bool {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(storeDir, "*", "seg-*.ndj"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if data, err := os.ReadFile(seg); err == nil && bytes.IndexByte(data, '\n') >= 0 {
			return true
		}
	}
	return false
}
