package workload

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/gen"
)

// update regenerates the checked-in golden traces instead of comparing
// against them: go test ./internal/workload -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden trace files")

// goldenCase pins one generator's golden walk. Scale and seed choices
// match internal/gen's digest pin test, so a generator drift fails both
// suites with consistent evidence.
type goldenCase struct {
	name  string
	build func(gen.Config) (*dataset.DB, error)
	cfg   gen.Config
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"demo", gen.Demo, gen.Config{Seed: 1, Scale: 1}},
		{"movielens", gen.Movielens, gen.Config{Seed: 1, Scale: 0.02}},
		{"yelp", gen.Yelp, gen.Config{Seed: 1, Scale: 0.02}},
		{"hotels", gen.Hotels, gen.Config{Seed: 1, Scale: 0.02}},
	}
}

// goldenWalk runs the pinned recording walk for one case: a single
// simulated user (seed 7, default mix, 8 steps) against a fresh
// in-process explorer.
func goldenWalk(t *testing.T, gc goldenCase) []Record {
	t.Helper()
	db, err := gc.build(gc.cfg)
	if err != nil {
		t.Fatalf("%s: generate: %v", gc.name, err)
	}
	ex, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: explorer: %v", gc.name, err)
	}
	res, err := Run(context.Background(), Config{
		Users:  1,
		Seed:   7,
		Record: true,
	}, InprocFactory(ex, core.RecommendationPowered, ""))
	if err != nil {
		t.Fatalf("%s: run: %v", gc.name, err)
	}
	u := res.Users[0]
	if u.Failure != "" {
		t.Fatalf("%s: user failed: %s", gc.name, u.Failure)
	}
	if len(u.Records) == 0 {
		t.Fatalf("%s: walk produced no records", gc.name)
	}
	return u.Records
}

// TestGoldenTraces replays the pinned walk for every generator and
// byte-compares the serialized trace against testdata/golden. Any
// divergence — generator drift, engine ranking change, recommendation
// reordering, digest change, serialization change — fails with a
// field-level diff.
func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			recs := goldenWalk(t, gc)
			path := filepath.Join("testdata", "golden", gc.name+".jsonl")
			got, err := MarshalGolden(recs)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d steps, %d bytes)", path, len(recs), len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if bytes.Equal(want, got) {
				return
			}
			wantRecs, err := ReadGolden(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("golden trace diverged and the checked-in file is unparseable: %v", err)
			}
			diffs := DiffRecords(wantRecs, recs)
			if len(diffs) == 0 {
				diffs = []string{"(byte-level difference only: whitespace or field ordering)"}
			}
			const limit = 24
			if len(diffs) > limit {
				diffs = append(diffs[:limit], fmt.Sprintf("... and %d more", len(diffs)-limit))
			}
			t.Errorf("golden trace diverged (%s):\n  %s", path, strings.Join(diffs, "\n  "))
		})
	}
}

// TestGoldenWalksExerciseShippedPaths guards what the goldens are for:
// they pin the shipped configuration, so each checked-in walk must reach
// the two behaviours only that configuration has — §4.3's two-pair
// candidates (an operation rendered with "; ") among the recommendations,
// and, on the yelp walk, a candidate group larger than RecSampleSize, so
// the sampled utility estimate is part of what the digests pin.
func TestGoldenWalksExerciseShippedPaths(t *testing.T) {
	for _, gc := range goldenCases() {
		f, err := os.Open(filepath.Join("testdata", "golden", gc.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadGolden(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		twoPair := false
		for _, rec := range recs {
			for _, r := range rec.Recommendations {
				op, _, _ := strings.Cut(r, " => ")
				twoPair = twoPair || strings.Contains(op, "; ")
			}
		}
		if !twoPair {
			t.Errorf("%s: no two-pair recommendation in the golden walk", gc.name)
		}
		if gc.name != "yelp" {
			continue
		}
		db, err := gc.build(gc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := core.NewExplorer(db, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Single-pair filters and roll-ups of each visited selection are
		// candidates whatever maps the step displayed.
		rb := &core.RecommendationBuilder{Ex: ex}
		largest := 0
		for _, rec := range recs {
			cur, err := ex.ParseDescription(rec.Event.Selection)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := rb.CandidateOps(cur, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				g, err := ex.Query.Materialize(op.Target)
				if err != nil {
					t.Fatal(err)
				}
				largest = max(largest, g.Len())
			}
		}
		if largest <= ex.Cfg.RecSampleSize {
			t.Errorf("yelp: largest candidate group has %d records, RecSampleSize is %d: the walk never samples",
				largest, ex.Cfg.RecSampleSize)
		}
	}
}

// TestGoldenRoundTrip pins the file format itself: records survive a
// write/read cycle exactly, and the reader tolerates blank lines.
func TestGoldenRoundTrip(t *testing.T) {
	recs := goldenWalk(t, goldenCases()[0])
	data, err := MarshalGolden(recs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadGolden(bytes.NewReader(append([]byte("\n"), data...)))
	if err != nil {
		t.Fatal(err)
	}
	again, err := MarshalGolden(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("golden records did not survive a write/read round trip")
	}
	if diffs := DiffRecords(recs, back); len(diffs) != 0 {
		t.Fatalf("round-trip diff: %v", diffs)
	}
}

// TestGoldenDeterminism re-runs the demo walk and requires bit-identical
// records — the same-seed-same-path guarantee the whole harness rests on.
func TestGoldenDeterminism(t *testing.T) {
	a, err := MarshalGolden(goldenWalk(t, goldenCases()[0]))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalGolden(goldenWalk(t, goldenCases()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different golden traces across runs")
	}
}

// TestDiffRecordsReportsFields exercises the failure renderer.
func TestDiffRecordsReportsFields(t *testing.T) {
	recs := goldenWalk(t, goldenCases()[0])
	mut := make([]Record, len(recs))
	copy(mut, recs)
	mut[0].Event.Selection = "items.bogus='x'"
	if len(mut[0].MapDigests) > 0 {
		digests := append([]string(nil), mut[0].MapDigests...)
		digests[0] = "tampered"
		mut[0].MapDigests = digests
	}
	diffs := DiffRecords(recs, mut)
	if len(diffs) < 2 {
		t.Fatalf("expected at least 2 diffs, got %v", diffs)
	}
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "selection") || !strings.Contains(joined, "digest") {
		t.Fatalf("diff output missing expected fields:\n%s", joined)
	}
}
