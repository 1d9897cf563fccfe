package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smallbuffers/internal/scenario"
	"smallbuffers/internal/store"
)

// restartableServer is newTestServer without the cleanup coupling, so a
// test can stop one daemon "process" and start another over the same
// cache directory.
func restartableServer(cfg Config) (*Server, *httptest.Server) {
	svc := New(cfg)
	return svc, httptest.NewServer(svc)
}

// TestCacheDirWarmRestart is the durable-cache acceptance: a daemon
// finishes a run, restarts (full process replacement — new Server, same
// CacheDir), and the second submission of the same scenario is a warm
// cache hit with a byte-identical digest, never re-simulated, that
// equals the local scenario run's digest.
func TestCacheDirWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := scenarioBody("cache-dir-warm", 4, 100, 0)

	svc1, ts1 := restartableServer(Config{Workers: 2, CacheDir: dir})
	code, first := post(t, ts1.URL, body)
	if code != http.StatusOK || first.Status != StatusDone {
		t.Fatalf("first run: %d %+v", code, first)
	}
	if first.Cached {
		t.Fatal("first run reported cached")
	}
	ts1.Close()
	svc1.Close()

	svc2, ts2 := restartableServer(Config{Workers: 2, CacheDir: dir})
	defer func() { ts2.Close(); svc2.Close() }()
	code, second := post(t, ts2.URL, body)
	if code != http.StatusOK || second.Status != StatusDone {
		t.Fatalf("post-restart run: %d %+v", code, second)
	}
	if !second.Cached {
		t.Fatal("post-restart submission was not served from the durable cache")
	}
	if second.ResultsDigest != first.ResultsDigest {
		t.Fatalf("digest drifted across restart: %s vs %s", second.ResultsDigest, first.ResultsDigest)
	}
	sc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if local := agg.Digest(); second.ResultsDigest != local {
		t.Fatalf("warm-restart digest %s, local run %s", second.ResultsDigest, local)
	}
	if len(second.Cells) != len(first.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(second.Cells), len(first.Cells))
	}
	if second.Summary == nil || first.Summary == nil ||
		second.Summary.DeliveredMeanMillis != first.Summary.DeliveredMeanMillis {
		t.Fatalf("summaries differ across restart: %+v vs %+v", second.Summary, first.Summary)
	}
	if v := metricValue(t, ts2.URL, "aqtserve_runs_cached_total"); v != 1 {
		t.Errorf("aqtserve_runs_cached_total = %v after warm hit, want 1", v)
	}

	// Third POST on the same process hits the in-memory cache, not disk.
	code, third := post(t, ts2.URL, body)
	if code != http.StatusOK || !third.Cached {
		t.Fatalf("in-memory re-hit: %d %+v", code, third)
	}
}

// TestCacheDirCorruptEntryEvicted flips a byte in the persisted entry:
// the restarted daemon must refuse to serve it (digest verification),
// evict it, and re-simulate to the same digest.
func TestCacheDirCorruptEntryEvicted(t *testing.T) {
	dir := t.TempDir()
	body := scenarioBody("cache-dir-corrupt", 4, 100, 0)
	sc, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	dig, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}

	svc1, ts1 := restartableServer(Config{Workers: 2, CacheDir: dir})
	_, first := post(t, ts1.URL, body)
	ts1.Close()
	svc1.Close()

	segs, err := filepath.Glob(filepath.Join(store.EntryDir(dir, dig), "seg-*.ndj"))
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

	svc2, ts2 := restartableServer(Config{Workers: 2, CacheDir: dir})
	defer func() { ts2.Close(); svc2.Close() }()
	code, second := post(t, ts2.URL, body)
	if code != http.StatusOK || second.Status != StatusDone {
		t.Fatalf("post-corruption run: %d %+v", code, second)
	}
	if second.Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	if second.ResultsDigest != first.ResultsDigest {
		t.Fatalf("re-simulated digest %s, original %s", second.ResultsDigest, first.ResultsDigest)
	}
}

// TestCacheDirOffUnchanged: without CacheDir nothing is written to disk
// and nothing is probed — the zero-store path is byte-identical to the
// pre-persistence service.
func TestCacheDirOffUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, rep := post(t, ts.URL, scenarioBody("cache-dir-off", 2, 50, 0))
	if code != http.StatusOK || rep.Cached {
		t.Fatalf("plain run: %d %+v", code, rep)
	}
}
