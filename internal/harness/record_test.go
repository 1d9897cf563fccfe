package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"smallbuffers/internal/metrics"
)

func TestRecordsDigestOrderInvariant(t *testing.T) {
	recs := []CellRecord{
		{Index: 0, Cell: "a", MaxLoad: 3, Delivered: 10},
		{Index: 1, Cell: "b", MaxLoad: 4, Delivered: 20},
		{Index: 2, Cell: "c", Err: "boom"},
	}
	shuffled := []CellRecord{recs[2], recs[0], recs[1]}
	if RecordsDigest(recs) != RecordsDigest(shuffled) {
		t.Error("digest depends on record order; must be index-canonical")
	}
	if !strings.HasPrefix(RecordsDigest(recs), "sha256:") {
		t.Errorf("digest %q lacks the sha256: prefix", RecordsDigest(recs))
	}
}

func TestRecordsDigestSensitive(t *testing.T) {
	base := []CellRecord{{Index: 0, Cell: "a", MaxLoad: 3}}
	bumped := []CellRecord{{Index: 0, Cell: "a", MaxLoad: 4}}
	if RecordsDigest(base) == RecordsDigest(bumped) {
		t.Error("digest blind to a metric change")
	}
	failed := []CellRecord{{Index: 0, Cell: "a", Err: "x"}}
	if RecordsDigest(base) == RecordsDigest(failed) {
		t.Error("digest blind to a cell failure")
	}
	withMetrics := []CellRecord{{Index: 0, Cell: "a", MaxLoad: 3,
		Metrics: []metrics.Summary{{Name: "load_hist", Kind: metrics.KindHist, Hist: &metrics.HistRecord{Count: 1, Exact: []int{1}}}}}}
	if RecordsDigest(base) == RecordsDigest(withMetrics) {
		t.Error("digest blind to metric summaries")
	}
}

// TestRecordsDigestVersionGate pins the digest scheme: the version
// header is part of the hash input, so a schema bump (RecordsVersion)
// invalidates every stored digest instead of colliding with old ones —
// except that v3 is gated on use: record sets without a fault entry keep
// digesting under the v2 header (their bytes are unchanged), so stored
// pre-fault corpus digests stay valid.
func TestRecordsDigestVersionGate(t *testing.T) {
	headerHash := func(v int) string {
		h := sha256.New()
		fmt.Fprintf(h, "v%d\n", v)
		return "sha256:" + hex.EncodeToString(h.Sum(nil))
	}
	if got := RecordsDigest(nil); got != headerHash(2) {
		t.Errorf("empty digest = %s, want the v2 header hash %s", got, headerHash(2))
	}
	if RecordsVersion != 3 {
		t.Errorf("RecordsVersion = %d; the v3 scheme carries fault fields — bumping it requires regenerating stored digests", RecordsVersion)
	}
	lossFree := []CellRecord{{Index: 0, Cell: "a", MaxLoad: 3}}
	faulted := []CellRecord{{Index: 0, Cell: "a", MaxLoad: 3, Faults: "drop(1/20)", Dropped: 2}}
	if RecordsDigest(lossFree) == RecordsDigest(faulted) {
		t.Error("digest blind to fault fields")
	}
	// The version gate is observable through the header: a single
	// loss-free record digests under v2 (prefix hash of "v2\n"), a
	// faulted one under v3.
	v2Only := NewRecordsDigester()
	if err := v2Only.Add(lossFree[0]); err != nil {
		t.Fatal(err)
	}
	if got := v2Only.Sum(); got != RecordsDigest(lossFree) {
		t.Errorf("digester digest %s != RecordsDigest %s over loss-free records", got, RecordsDigest(lossFree))
	}
	v3Only := NewRecordsDigester()
	if err := v3Only.Add(faulted[0]); err != nil {
		t.Fatal(err)
	}
	if got := v3Only.Sum(); got != RecordsDigest(faulted) {
		t.Errorf("digester digest %s != RecordsDigest %s over faulted records", got, RecordsDigest(faulted))
	}
}

func TestCellResultRecord(t *testing.T) {
	cr := CellResult{Cell: Cell{Index: 7, Protocol: "PPTS", Topology: "path(16)", Adversary: "random", Seed: 3, Rounds: 100}}
	cr.Result.MaxLoad = 5
	cr.Result.Injected = 40
	cr.Result.Delivered = 38
	rec := cr.Record()
	if rec.Index != 7 || rec.MaxLoad != 5 || rec.Injected != 40 || rec.Delivered != 38 {
		t.Errorf("record mismatch: %+v", rec)
	}
	if !strings.Contains(rec.Cell, "PPTS") {
		t.Errorf("record label %q misses the protocol", rec.Cell)
	}

	failed := CellResult{Cell: Cell{Index: 1}, Err: errors.New("boom")}
	frec := failed.Record()
	if frec.Err != "boom" || frec.MaxLoad != 0 {
		t.Errorf("failed record mismatch: %+v", frec)
	}
}

// TestSweepDigestStableAcrossWorkerCounts is the service-tier guarantee
// in miniature: the same grid digests identically at any parallelism.
func TestSweepDigestStableAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) string {
		s := acceptanceSweep(workers)
		agg, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if agg.Failed > 0 {
			t.Fatalf("%d cells failed: %v", agg.Failed, agg.FirstErr())
		}
		return agg.Digest()
	}
	d1, d4 := run(1), run(4)
	if d1 != d4 {
		t.Errorf("digest varies with worker count: %s vs %s", d1, d4)
	}
}

// TestRecordFold checks the shared fold against its definition: counts
// over clean and failed cells, the RecordsDigest of the records, and the
// index-ordered metrics.MergeAll of the per-cell summaries — whether the
// records are folded in memory or fed as their stored encodings.
func TestRecordFold(t *testing.T) {
	res, err := acceptanceSweep(2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records()
	recs = append(recs, CellRecord{Index: len(recs), Cell: "broken", Err: "boom"})

	var perCell []map[string]metrics.Summary
	for _, rec := range recs {
		if rec.Err == "" {
			m := map[string]metrics.Summary{}
			for _, s := range rec.Metrics {
				m[s.Name] = s
			}
			perCell = append(perCell, m)
		}
	}
	merged, err := metrics.MergeAll(perCell)
	if err != nil {
		t.Fatal(err)
	}
	wire := func(ms []metrics.Summary) string {
		b, err := json.Marshal(ms)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := wire(metrics.Records(merged))

	streamed := NewRecordFold()
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := streamed.AddEncoded(rec, line); err != nil {
			t.Fatal(err)
		}
	}
	for name, f := range map[string]*RecordFold{"FoldRecords": FoldRecords(recs), "AddEncoded": streamed} {
		if f.Completed != len(recs)-1 || f.Failed != 1 {
			t.Errorf("%s: %d completed, %d failed", name, f.Completed, f.Failed)
		}
		if f.Digest() != RecordsDigest(recs) {
			t.Errorf("%s: digest %s, want %s", name, f.Digest(), RecordsDigest(recs))
		}
		if got := wire(f.Metrics()); len(merged) == 0 || got != want {
			t.Errorf("%s: metrics %s, want %s", name, got, want)
		}
	}
	if err := streamed.AddEncoded(recs[0], nil); err == nil {
		t.Error("out-of-order record folded")
	}

	// A mixed-kind merge drops the aggregate and keeps the run.
	clash := []CellRecord{
		{Index: 0, Metrics: []metrics.Summary{{Name: "m", Kind: metrics.KindHist, Hist: &metrics.HistRecord{Count: 1, Exact: []int{1}}}}},
		{Index: 1, Metrics: []metrics.Summary{{Name: "m", Kind: metrics.KindScalar, Scalars: map[string]int{"x": 1}}}},
	}
	if f := FoldRecords(clash); f.Metrics() != nil || f.Completed != 2 {
		t.Errorf("mixed-kind fold: metrics %v, %d completed", f.Metrics(), f.Completed)
	}
}
