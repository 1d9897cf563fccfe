package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"smallbuffers/internal/metrics"
)

// RecordsDigester computes RecordsDigest incrementally: records are fed
// one at a time, in strictly increasing index order, and the digest is
// available at any point without the record set ever being materialized
// in memory. It is the streaming counterpart of RecordsDigest — the two
// are byte-identical over the same records (RecordsDigest is implemented
// on top of it) — and is what lets the store and the fleet coordinator
// digest arbitrarily large result sets in O(1) space.
//
// The version gate (v2 for loss-free record sets, v3 once any record
// carries a fault entry — see RecordsVersion) cannot be decided until the
// last record has been seen, so the digester maintains both version
// states in parallel over the identical record stream and picks the
// right one at Sum time.
type RecordsDigester struct {
	v2, v3  hash.Hash
	count   int
	last    int
	faulted bool
}

// NewRecordsDigester returns an empty digester.
func NewRecordsDigester() *RecordsDigester {
	d := &RecordsDigester{v2: sha256.New(), v3: sha256.New()}
	hashWrite(d.v2, []byte("v2\n"))
	hashWrite(d.v3, fmt.Appendf(nil, "v%d\n", RecordsVersion))
	return d
}

// Add feeds one record. Records must arrive in strictly increasing index
// order (the canonical digest order); a duplicate or out-of-order index
// is an error and leaves the digester unchanged.
func (d *RecordsDigester) Add(rec CellRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		// CellRecord is a flat struct of ints and strings; Marshal cannot
		// fail on it.
		panic(err)
	}
	return d.AddEncoded(rec.Index, rec.Faults != "", line)
}

// AddEncoded feeds one record by its canonical JSON encoding (the exact
// bytes json.Marshal produces for the CellRecord, no trailing newline).
// Callers that already hold the wire bytes — the store reading records
// back off disk — avoid a decode/re-encode round trip this way.
func (d *RecordsDigester) AddEncoded(index int, faulted bool, line []byte) error {
	if d.count > 0 && index <= d.last {
		return fmt.Errorf("harness: digest record index %d after %d (records must be strictly increasing)", index, d.last)
	}
	d.count++
	d.last = index
	if faulted {
		d.faulted = true
	}
	hashWrite(d.v2, line)
	hashWrite(d.v2, []byte{'\n'})
	hashWrite(d.v3, line)
	hashWrite(d.v3, []byte{'\n'})
	return nil
}

// Count returns the number of records fed so far.
func (d *RecordsDigester) Count() int { return d.count }

// Sum returns the digest of the records fed so far, in the same
// "sha256:<hex>" form as RecordsDigest. It does not consume the
// digester: more records may be added and Sum taken again.
func (d *RecordsDigester) Sum() string {
	h := d.v2
	if d.faulted {
		h = d.v3
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// RecordFold folds cell records, fed in strictly increasing index order,
// into the aggregate every tier reports for a run: the completed and
// failed counts, the results digest (see RecordsDigest) and the
// grid-wide metric summaries, merged per collector name in index order
// (see metrics.Merge). It holds no records, so a store-backed merge can
// stream an entry of any size through it.
type RecordFold struct {
	Completed, Failed int

	digest  *RecordsDigester
	metrics map[string]metrics.Summary // nil once a merge has failed
}

// NewRecordFold returns an empty fold.
func NewRecordFold() *RecordFold {
	return &RecordFold{digest: NewRecordsDigester(), metrics: map[string]metrics.Summary{}}
}

// FoldRecords folds recs, which must be in index order.
func FoldRecords(recs []CellRecord) *RecordFold {
	f := NewRecordFold()
	for _, rec := range recs {
		if err := f.digest.Add(rec); err != nil {
			// Grid indices are unique by construction; see RecordsDigest.
			panic(err)
		}
		f.fold(rec)
	}
	return f
}

// AddEncoded folds one record whose canonical JSON encoding (see
// RecordsDigester.AddEncoded) the caller already holds; the digest
// hashes those bytes. A duplicate or out-of-order index is an error and
// leaves the fold unchanged.
func (f *RecordFold) AddEncoded(rec CellRecord, line []byte) error {
	if err := f.digest.AddEncoded(rec.Index, rec.Faults != "", line); err != nil {
		return err
	}
	f.fold(rec)
	return nil
}

func (f *RecordFold) fold(rec CellRecord) {
	if rec.Err != "" {
		f.Failed++
		return
	}
	f.Completed++
	if f.metrics == nil {
		return
	}
	for _, s := range rec.Metrics {
		prev, ok := f.metrics[s.Name]
		if !ok {
			f.metrics[s.Name] = s
			continue
		}
		m, err := metrics.Merge(prev, s)
		if err != nil {
			// One collector per name per cell, so same-name summaries
			// merge cleanly; on the impossible mixed-kind error the
			// aggregate is dropped, never the run.
			f.metrics = nil
			return
		}
		f.metrics[s.Name] = m
	}
}

// Digest returns the results digest of the records folded so far.
func (f *RecordFold) Digest() string { return f.digest.Sum() }

// Metrics returns the merged metric summaries sorted by collector name,
// or nil when no record carried any or a merge failed.
func (f *RecordFold) Metrics() []metrics.Summary { return metrics.Records(f.metrics) }
