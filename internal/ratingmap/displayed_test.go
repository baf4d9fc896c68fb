package ratingmap_test

// A displayed map is explained by the scores it was ranked by. This lives
// beside the reference scorer (scores_reference_test.go), in ratingmap's
// external test package, because the reference is test code: no other
// package's tests can reach it, and this one can import core.

import (
	"fmt"
	"math"
	"testing"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// TestDisplayedScoresAreTheRankingScores walks Recommendation-Powered
// sessions of eight steps, following the top recommendation, on the four
// dataset shapes. At every step each displayed map's StepResult.Scores must
// be the reference scorer's against the seen set as it was *before* the
// step (to the 1e-9 the two scorers' summation orders allow), its utility
// must be those scores aggregated and weighted, bit for bit, and on the
// first step nothing was seen, so global peculiarity is 0. Explaining a map
// by rescoring it against the seen set after the step — which already holds
// the step's own maps — gave other scores on 16 of these 96 maps.
func TestDisplayedScoresAreTheRankingScores(t *testing.T) {
	for _, sh := range []struct {
		name string
		gen  func(gen.Config) (*dataset.DB, error)
	}{{"demo", gen.Demo}, {"yelp", gen.Yelp}, {"movielens", gen.Movielens}, {"hotels", gen.Hotels}} {
		db, err := sh.gen(gen.Config{Seed: 1, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := core.NewExplorer(db, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := ex.Cfg.Engine.Utility
		sess, err := core.NewSession(ex, core.RecommendationPowered, query.Description{})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			before := sess.Seen().Clone()
			res, err := sess.Step()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Scores) != len(res.Maps) || len(res.Utilities) != len(res.Maps) || len(res.Maps) == 0 {
				t.Fatalf("%s step %d: %d maps, %d scores, %d utilities", sh.name, step, len(res.Maps), len(res.Scores), len(res.Utilities))
			}
			for i, rm := range res.Maps {
				label := fmt.Sprintf("%s step %d %v", sh.name, step, rm.Key)
				got, want := res.Scores[i], ratingmap.ComputeScoresOpt(rm, before, 1, cfg.Peculiarity)
				for c := range got {
					if math.Abs(got[c]-want[c]) > 1e-9 {
						t.Fatalf("%s: %s is %v, the reference against the pre-step seen set %v", label, ratingmap.Criterion(c), got[c], want[c])
					}
				}
				if u := ratingmap.DWUtility(got.Aggregate(cfg), rm.Dim, before, cfg); math.Float64bits(u) != math.Float64bits(res.Utilities[i]) {
					t.Fatalf("%s: utility %v, its scores give %v", label, res.Utilities[i], u)
				}
				if step == 0 && got[ratingmap.PecGlobal] != 0 {
					t.Fatalf("%s: global peculiarity %v with nothing seen", label, got[ratingmap.PecGlobal])
				}
			}
			if len(res.Recommendations) == 0 {
				t.Fatalf("%s step %d: no recommendation to follow", sh.name, step)
			}
			if err := sess.ApplyRecommendation(0); err != nil {
				t.Fatal(err)
			}
		}
	}
}
