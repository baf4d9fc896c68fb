package diversity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subdex/internal/dataset"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// fabricate builds a rating map with one bar per histogram on a 5-scale.
func fabricate(dim int, attr string, bars ...[]int) *ratingmap.RatingMap {
	rm := &ratingmap.RatingMap{
		Key:   ratingmap.Key{Side: query.ItemSide, Attr: attr, Dim: dim},
		Scale: 5,
	}
	// Route through the builder-free path: set Subgroups directly and use a
	// synthetic total histogram via reflection-free recomputation.
	for i, counts := range bars {
		n := 0
		for _, c := range counts {
			n += c
		}
		rm.Subgroups = append(rm.Subgroups, ratingmap.Subgroup{
			Value: dataset.ValueID(i + 1), Counts: counts, N: n})
		rm.TotalRecords += n
	}
	return rm
}

// Note: fabricate leaves the unexported pooled histogram empty, so
// Distribution() falls back to uniform. Tests that need pooled structure use
// realMaps instead.

// realMaps builds maps through the public Builder so pooled histograms are
// populated.
func realMaps(t testing.TB, scoresA, scoresB []int) (*ratingmap.RatingMap, *ratingmap.RatingMap) {
	t.Helper()
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "g"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "c"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	reviewers.AppendRow("u1", map[string]string{"g": "F"}, nil)
	reviewers.AppendRow("u2", map[string]string{"g": "M"}, nil)
	items.AppendRow("i1", map[string]string{"c": "X"}, nil)
	rt, _ := dataset.NewRatingTable(
		dataset.Dimension{Name: "d0", Scale: 5}, dataset.Dimension{Name: "d1", Scale: 5})
	for i, s := range scoresA {
		rt.Append(i%2, 0, []dataset.Score{dataset.Score(s), dataset.Score(scoresB[i])})
	}
	db := dataset.NewDB("x", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	b := ratingmap.Builder{DB: db}
	recs := make([]int32, db.Ratings.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	maps := b.Build(query.Description{}, recs, []ratingmap.Key{
		{Side: query.ReviewerSide, Attr: "g", Dim: 0},
		{Side: query.ReviewerSide, Attr: "g", Dim: 1},
	})
	return maps[0], maps[1]
}

func TestEMDSeparatesDimensions(t *testing.T) {
	a, b := realMaps(t, []int{1, 1, 1, 1}, []int{5, 5, 5, 5})
	if d := EMD(a, b); d <= 0.5 {
		t.Errorf("opposite-score dimensions should be distant, got %v", d)
	}
	if d := EMD(a, a); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

func TestEMDWithAttributeBonus(t *testing.T) {
	a, _ := realMaps(t, []int{3, 3, 3, 3}, []int{3, 3, 3, 3})
	b := *a
	b.Attr = "different"
	if base, bonus := EMD(a, a), EMDWithAttribute(a, &b); bonus <= base {
		t.Errorf("attribute bonus missing: %v vs %v", bonus, base)
	}
}

func TestEMDScaleMismatch(t *testing.T) {
	a, _ := realMaps(t, []int{3}, []int{3})
	c := fabricate(0, "c")
	c.Scale = 7
	// Different scale → maximally distant.
	if !math.IsInf(EMD(a, c), 1) {
		t.Errorf("EMD across scales %d and %d = %v, want +Inf", a.Scale, c.Scale, EMD(a, c))
	}
}

func TestSetDiversityDefinition(t *testing.T) {
	a, b := realMaps(t, []int{1, 1, 1, 1}, []int{5, 5, 5, 5})
	if got := SetDiversity([]*ratingmap.RatingMap{a}, EMD); got != 0 {
		t.Errorf("singleton set diversity = %v, want 0", got)
	}
	set := []*ratingmap.RatingMap{a, b, a}
	// Contains a duplicate: min pairwise distance is 0.
	if got := SetDiversity(set, EMD); got != 0 {
		t.Errorf("set with duplicate: diversity = %v, want 0", got)
	}
	if got := AvgPairwiseDiversity(set, EMD); got <= 0 {
		t.Errorf("avg pairwise should be positive, got %v", got)
	}
}

func TestGMMBasics(t *testing.T) {
	a, b := realMaps(t, []int{1, 1, 1, 1}, []int{5, 5, 5, 5})
	maps := []*ratingmap.RatingMap{a, b}
	if got := GMM(maps, 5, 0, EMD); len(got) != 2 {
		t.Errorf("k ≥ n must return all: %v", got)
	}
	if got := GMM(maps, 0, 0, EMD); got != nil {
		t.Errorf("k=0 must return nil, got %v", got)
	}
	if got := GMM(nil, 3, 0, EMD); got != nil {
		t.Errorf("empty input must return nil, got %v", got)
	}
	got := GMM(maps, 1, 1, EMD)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("seed must be respected: %v", got)
	}
}

// lineDistance treats maps as points on a line via their first bar count —
// a contrived metric to verify GMM's dispersion guarantee exactly.
func lineMaps(xs ...int) []*ratingmap.RatingMap {
	out := make([]*ratingmap.RatingMap, len(xs))
	for i, x := range xs {
		out[i] = fabricate(0, "a", []int{x, 0, 0, 0, 0})
	}
	return out
}

func lineDistance(a, b *ratingmap.RatingMap) float64 {
	return math.Abs(float64(a.Subgroups[0].Counts[0] - b.Subgroups[0].Counts[0]))
}

func TestGMMPicksDispersedPoints(t *testing.T) {
	// Points 0, 1, 2, 100: choosing k=2 from seed 0 must pick 100.
	maps := lineMaps(0, 1, 2, 100)
	got := GMM(maps, 2, 0, lineDistance)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("GMM = %v, want [0 3]", got)
	}
	// k=3: next farthest from {0,100} is 2 (min-dist 2) over 1 (min-dist 1).
	got = GMM(maps, 3, 0, lineDistance)
	if got[2] != 2 {
		t.Fatalf("third pick = %d, want 2", got[2])
	}
}

func TestGMMTwoApproximation(t *testing.T) {
	// Brute-force optimal dispersion vs GMM on random small instances.
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = r.Intn(1000)
		}
		maps := lineMaps(xs...)
		const k = 3
		gmmIdx := GMM(maps, k, 0, lineDistance)
		gmmDiv := minPairwise(maps, gmmIdx)

		best := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for l := j + 1; l < n; l++ {
					if d := minPairwise(maps, []int{i, j, l}); d > best {
						best = d
					}
				}
			}
		}
		// 2-approximation: gmmDiv ≥ best/2.
		return gmmDiv >= best/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func minPairwise(maps []*ratingmap.RatingMap, idx []int) float64 {
	best := math.Inf(1)
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if d := lineDistance(maps[idx[i]], maps[idx[j]]); d < best {
				best = d
			}
		}
	}
	return best
}

func TestSelectDiversePreservesUtilityOrder(t *testing.T) {
	maps := lineMaps(0, 50, 100, 150)
	sel := SelectDiverse(maps, 2, lineDistance)
	if len(sel) != 2 {
		t.Fatalf("selected %d", len(sel))
	}
	// Selection must preserve the (utility) order of the input ranking.
	if sel[0] != maps[0] {
		t.Error("top-utility map (seed) must be kept first")
	}
}
