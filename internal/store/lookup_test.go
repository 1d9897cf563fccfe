package store

import (
	"os"
	"testing"

	"smallbuffers/internal/harness"
)

// TestLookupSave tables the entry-validity policy the daemon cache and
// aqtbench -store share. Each case builds an entry state, checks what
// Lookup serves and what it leaves on disk, then checks that Save turns
// whatever is left into a verified hit.
func TestLookupSave(t *testing.T) {
	span := harness.IndexRange{Lo: 0, Hi: 6}
	recs := allRecs(6)
	digest := harness.RecordsDigest(recs)
	save := func(t *testing.T, root string, rs []harness.CellRecord) {
		t.Helper()
		if err := Save(root, testDigest, span, rs, digest); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	editManifest := func(t *testing.T, root string, edit func(*manifest)) {
		t.Helper()
		dir := EntryDir(root, testDigest)
		m, err := loadManifest(dir)
		if err != nil || m == nil {
			t.Fatalf("manifest: %v %v", m, err)
		}
		edit(m)
		if err := saveManifest(dir, m); err != nil {
			t.Fatal(err)
		}
	}
	const evicted = -1 // no entry directory after Lookup
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, root string)
		hit   bool
		kept  int // cells the entry covers after Lookup, or evicted
	}{
		{"missing entry is a miss and creates nothing", func(*testing.T, string) {}, false, evicted},
		{"verified entry is a hit", func(t *testing.T, root string) { save(t, root, recs) }, true, 6},
		{"partial entry is kept", func(t *testing.T, root string) { save(t, root, recs[:3]) }, false, 3},
		{"complete unsealed entry is kept", func(t *testing.T, root string) {
			s := mustOpen(t, root, span, Options{})
			appendAll(t, s, recs)
			s.Close()
		}, false, 6},
		{"unopenable entry is evicted", func(t *testing.T, root string) {
			save(t, root, recs)
			editManifest(t, root, func(m *manifest) { m.Format++ })
		}, false, evicted},
		{"digest mismatch is evicted", func(t *testing.T, root string) {
			save(t, root, recs)
			editManifest(t, root, func(m *manifest) { m.RecordsDigest = harness.RecordsDigest(recs[:1]) })
		}, false, evicted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			tc.setup(t, root)
			st, err := Lookup(root, testDigest, span)
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			if (st != nil) != tc.hit {
				t.Fatalf("Lookup hit = %v, want %v", st != nil, tc.hit)
			}
			if st != nil {
				if st.Count() != span.Count() || st.RecordsDigest() != digest {
					t.Errorf("hit covers %d cells with digest %s", st.Count(), st.RecordsDigest())
				}
				st.Close()
			}
			if _, err := os.Stat(EntryDir(root, testDigest)); tc.kept == evicted {
				if err == nil {
					t.Fatal("entry directory present, want none")
				}
			} else {
				s := mustOpen(t, root, span, Options{})
				if s.Count() != tc.kept {
					t.Errorf("entry covers %d cells after Lookup, want %d", s.Count(), tc.kept)
				}
				s.Close()
			}

			// Save appends only what is missing (a second append of a
			// covered cell is an error) and seals the digest.
			save(t, root, recs)
			st, err = Lookup(root, testDigest, span)
			if st == nil || err != nil {
				t.Fatalf("Lookup after Save: %v %v", st, err)
			}
			st.Close()
		})
	}

	t.Run("Save evicts a stale entry", func(t *testing.T) {
		root := t.TempDir()
		save(t, root, recs)
		editManifest(t, root, func(m *manifest) { m.Format++ })
		save(t, root, recs)
		st, err := Lookup(root, testDigest, span)
		if st == nil || err != nil {
			t.Fatalf("Lookup after Save: %v %v", st, err)
		}
		st.Close()
	})

	t.Run("Save of part of the span does not seal", func(t *testing.T) {
		root := t.TempDir()
		save(t, root, recs[:4])
		s := mustOpen(t, root, span, Options{})
		defer s.Close()
		if s.Count() != 4 || s.RecordsDigest() != "" {
			t.Fatalf("entry covers %d cells, digest %q", s.Count(), s.RecordsDigest())
		}
	})
}
