package subdex_test

// Cross-dataset integration tests: run full guided sessions on all three
// generated databases and check the system-wide invariants that no single
// package test can see — display arity, utility ordering and bounds, seen-
// set growth, description validity along recommended paths, and summary
// consistency.

import (
	"testing"

	"subdex"
)

func allDatasets(t *testing.T) map[string]*subdex.DB {
	t.Helper()
	dbs := make(map[string]*subdex.DB)
	var err error
	if dbs["movielens"], err = subdex.GenerateMovielens(subdex.GenConfig{Scale: 0.05, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if dbs["yelp"], err = subdex.GenerateYelp(subdex.GenConfig{Scale: 0.01, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if dbs["hotels"], err = subdex.GenerateHotels(subdex.GenConfig{Scale: 0.05, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	return dbs
}

func TestGuidedSessionInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full sessions are slow")
	}
	const steps = 3
	for name, db := range allDatasets(t) {
		name, db := name, db
		t.Run(name, func(t *testing.T) {
			cfg := subdex.DefaultConfig()
			cfg.RecSampleSize = 300
			ex, err := subdex.NewExplorer(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := subdex.NewSession(ex, subdex.RecommendationPowered, subdex.Everything())
			if err != nil {
				t.Fatal(err)
			}
			seenBefore := 0
			for s := 0; s < steps; s++ {
				res, err := sess.Step()
				if err != nil {
					t.Fatalf("step %d: %v", s+1, err)
				}
				// Display arity: k maps whenever at least k candidates exist.
				if len(res.Maps) == 0 {
					t.Fatalf("step %d: empty display", s+1)
				}
				if len(res.Maps) > cfg.K {
					t.Fatalf("step %d: %d maps exceed k=%d", s+1, len(res.Maps), cfg.K)
				}
				// Utilities: aligned, descending, within [0, 1].
				if len(res.Utilities) != len(res.Maps) {
					t.Fatalf("step %d: utilities misaligned", s+1)
				}
				for i, u := range res.Utilities {
					if u < 0 || u > 1+1e-9 {
						t.Fatalf("step %d: utility %v out of range", s+1, u)
					}
					if i > 0 && u > res.Utilities[i-1]+1e-9 {
						t.Fatalf("step %d: utilities not descending", s+1)
					}
				}
				// Maps describe the current selection.
				for _, rm := range res.Maps {
					if !rm.Desc.Equal(res.Desc) {
						t.Fatalf("step %d: map built for %s, step is %s", s+1, rm.Desc, res.Desc)
					}
					if rm.TotalRecords == 0 {
						t.Fatalf("step %d: empty rating map displayed", s+1)
					}
				}
				// Seen set grows by exactly the displayed maps.
				if got := sess.Seen().Total(); got != seenBefore+len(res.Maps) {
					t.Fatalf("step %d: seen %d, want %d", s+1, got, seenBefore+len(res.Maps))
				}
				seenBefore = sess.Seen().Total()
				// Recommendations: sorted, non-negative, targets valid and
				// within edit distance 2 of the current selection.
				for i, rec := range res.Recommendations {
					if rec.Utility < 0 {
						t.Fatalf("step %d: negative rec utility", s+1)
					}
					if i > 0 && rec.Utility > res.Recommendations[i-1].Utility+1e-9 {
						t.Fatalf("step %d: recs not sorted", s+1)
					}
					if d := res.Desc.EditDistance(rec.Op.Target); d == 0 || d > 2 {
						t.Fatalf("step %d: rec at edit distance %d", s+1, d)
					}
				}
				if len(res.Recommendations) > 0 {
					if err := sess.ApplyRecommendation(0); err != nil {
						t.Fatalf("step %d: apply: %v", s+1, err)
					}
				}
			}
			sum := sess.Summarize()
			if sum.Steps != steps {
				t.Fatalf("summary steps = %d, want %d", sum.Steps, steps)
			}
			if sum.TotalUtility <= 0 {
				t.Fatal("summary utility must be positive")
			}
		})
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sessions are slow")
	}
	// Two identically seeded end-to-end runs must produce identical paths:
	// generation, engine, pruning, diversity selection and recommendation
	// ranking are all deterministic.
	run := func() []string {
		db, err := subdex.GenerateYelp(subdex.GenConfig{Scale: 0.01, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		cfg := subdex.DefaultConfig()
		cfg.RecSampleSize = 300
		ex, err := subdex.NewExplorer(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := subdex.NewSession(ex, subdex.FullyAutomated, subdex.Everything())
		if err != nil {
			t.Fatal(err)
		}
		steps, err := sess.Auto(3)
		if err != nil {
			t.Fatal(err)
		}
		var path []string
		for _, st := range steps {
			path = append(path, st.Desc.String())
			for _, rm := range st.Maps {
				path = append(path, rm.Side.String()+"."+rm.Attr+"/"+rm.DimName)
			}
		}
		return path
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("path lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("paths diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
