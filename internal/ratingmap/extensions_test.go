package ratingmap

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subdex/internal/query"
)

func jsonUnmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }

func TestSubgroupModeScore(t *testing.T) {
	sg := Subgroup{Counts: []int{1, 5, 2, 5, 0}, N: 13}
	// Tie between ratings 2 and 4 breaks toward the lower rating.
	if got := sg.ModeScore(); got != 2 {
		t.Errorf("ModeScore = %d, want 2", got)
	}
	empty := Subgroup{Counts: []int{0, 0, 0}}
	if empty.ModeScore() != 0 {
		t.Error("empty subgroup mode must be 0")
	}
	single := Subgroup{Counts: []int{0, 0, 0, 0, 7}, N: 7}
	if single.ModeScore() != 5 {
		t.Error("all-fives mode must be 5")
	}
}

func TestScoresBest(t *testing.T) {
	s := Scores{0.1, 0.9, 0.3, 0.2}
	c, v := s.Best()
	if c != Agreement || v != 0.9 {
		t.Errorf("Best = %v/%v, want agreement/0.9", c, v)
	}
	// Ties break toward the earlier criterion.
	s = Scores{0.5, 0.5, 0.5, 0.5}
	if c, _ := s.Best(); c != Conciseness {
		t.Errorf("tie should break to conciseness, got %v", c)
	}
}

func TestKLPeculiarityOrdering(t *testing.T) {
	// KL must agree with TVD on the qualitative ordering: a deviant bar
	// scores higher than a conforming one under both measures.
	uniform := []int{10, 10, 10, 10, 10}
	flat := mapWithBars(5, uniform, uniform)
	deviant := mapWithBars(5, uniform, []int{50, 0, 0, 0, 0})
	for _, m := range []PeculiarityMeasure{PecTVD, PecKL} {
		if SelfPeculiarityWith(deviant, m) <= SelfPeculiarityWith(flat, m) {
			t.Errorf("%v: deviant must outscore flat", m)
		}
	}
}

func TestKLPeculiarityBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rm := randomRatingMap(r)
		seen := NewSeenSet()
		seen.Add(randomRatingMap(r))
		for _, m := range []PeculiarityMeasure{PecTVD, PecKL} {
			s := ComputeScoresOpt(rm, seen, 1, m)
			for _, v := range s {
				if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestKLEstimateMatchesExact(t *testing.T) {
	// The estimator must agree with the materialized scorer under KL too.
	rng := rand.New(rand.NewSource(73))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomFixture(r)
		b := Builder{DB: db}
		keys := []Key{{Side: query.ReviewerSide, Attr: "gender", Dim: 0}}
		recs := make([]int32, db.Ratings.Len())
		for i := range recs {
			recs[i] = int32(i)
		}
		acc := b.NewAccumulator(query.Description{}, keys)
		acc.Update(recs)
		seen := NewSeenSet()
		seen.Add(randomRatingMap(r))
		est := acc.ScoresAt(0, seen, 1, PecKL, nil)
		exact := ComputeScoresOpt(acc.Snapshot(keys[0]), seen, 1, PecKL)
		for c := Criterion(0); c < NumCriteria; c++ {
			if math.Abs(est[c]-exact[c]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPeculiarityMeasureString(t *testing.T) {
	if PecTVD.String() != "tvd" || PecKL.String() != "kl" {
		t.Error("measure strings wrong")
	}
}

func TestVegaLiteSpec(t *testing.T) {
	rm := mapWithBars(5, []int{1, 2, 1, 5, 7}, []int{3, 3, 2, 5, 7})
	rm.Attr = "neighborhood"
	rm.DimName = "food"
	spec, err := rm.VegaLiteSpec(nil)
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := jsonUnmarshal(spec, &parsed); err != nil {
		t.Fatalf("spec is not valid JSON: %v", err)
	}
	if parsed["$schema"] != "https://vega.github.io/schema/vega-lite/v5.json" {
		t.Error("schema URL missing")
	}
	if parsed["mark"] != "bar" {
		t.Error("mark must be bar")
	}
	data := parsed["data"].(map[string]any)["values"].([]any)
	// 10 non-zero (group, rating) cells across the two bars.
	if len(data) != 10 {
		t.Fatalf("data rows = %d, want 10", len(data))
	}
	total := 0.0
	for _, row := range data {
		total += row.(map[string]any)["count"].(float64)
	}
	if int(total) != rm.TotalRecords {
		t.Fatalf("spec counts sum to %d, want %d", int(total), rm.TotalRecords)
	}
}
