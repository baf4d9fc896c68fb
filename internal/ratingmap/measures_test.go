package ratingmap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// mapWithBars fabricates a rating map from bar histograms.
func mapWithBars(scale int, bars ...[]int) *RatingMap {
	rm := &RatingMap{Scale: scale, total: make([]int, scale)}
	for i, counts := range bars {
		n := 0
		for s, c := range counts {
			n += c
			rm.total[s] += c
		}
		rm.Subgroups = append(rm.Subgroups, Subgroup{Value: dataset.ValueID(i + 1), Counts: counts, N: n})
		rm.TotalRecords += n
	}
	return rm
}

func TestRawConciseness(t *testing.T) {
	rm := mapWithBars(5, []int{10, 0, 0, 0, 0}, []int{0, 10, 0, 0, 0})
	if got := RawConciseness(rm); !almost(got, 10) { // 20 records / 2 bars
		t.Errorf("RawConciseness = %v, want 10", got)
	}
	empty := &RatingMap{Scale: 5, total: make([]int, 5)}
	if RawConciseness(empty) != 0 || BoundedConciseness(empty) != 0 {
		t.Error("empty map conciseness must be 0")
	}
}

func TestBoundedConcisenessMonotone(t *testing.T) {
	// More records per bar → more concise.
	small := mapWithBars(5, []int{5, 0, 0, 0, 0})
	big := mapWithBars(5, []int{5000, 0, 0, 0, 0})
	if BoundedConciseness(big) <= BoundedConciseness(small) {
		t.Error("conciseness must grow with compaction gain")
	}
	if c := BoundedConciseness(big); c < 0 || c > 1 {
		t.Errorf("bounded conciseness out of range: %v", c)
	}
}

func TestAgreement(t *testing.T) {
	// All scores identical within each bar: perfect agreement.
	perfect := mapWithBars(5, []int{10, 0, 0, 0, 0}, []int{0, 0, 0, 0, 10})
	if got := BoundedAgreement(perfect); !almost(got, 1) {
		t.Errorf("perfect agreement = %v, want 1", got)
	}
	if !math.IsInf(RawAgreement(perfect), 1) {
		t.Error("raw agreement at zero dispersion must be +Inf")
	}
	// Spread scores: lower agreement.
	spread := mapWithBars(5, []int{5, 0, 0, 0, 5})
	if BoundedAgreement(spread) >= BoundedAgreement(perfect) {
		t.Error("spread bar must reduce agreement")
	}
}

func TestAgreementWeighting(t *testing.T) {
	// A singleton zero-SD bar must not dominate a large noisy bar.
	noisyBig := []int{20, 0, 0, 0, 20}
	singleton := []int{1, 0, 0, 0, 0}
	weighted := mapWithBars(5, noisyBig, singleton)
	onlyNoisy := mapWithBars(5, noisyBig)
	if a, b := BoundedAgreement(weighted), BoundedAgreement(onlyNoisy); math.Abs(a-b) > 0.05 {
		t.Errorf("singleton bar changed agreement too much: %v vs %v", a, b)
	}
}

func TestSelfPeculiarity(t *testing.T) {
	// All bars identical to pooled: no peculiarity.
	uniformBar := []int{2, 2, 2, 2, 2}
	flat := mapWithBars(5, uniformBar, uniformBar)
	if got := SelfPeculiarity(flat); !almost(got, 0) {
		t.Errorf("flat map peculiarity = %v, want 0", got)
	}
	// One deviant bar raises it.
	deviant := mapWithBars(5, []int{20, 0, 0, 0, 0}, []int{0, 0, 0, 0, 20})
	if SelfPeculiarity(deviant) <= 0.3 {
		t.Errorf("deviant bars should score high, got %v", SelfPeculiarity(deviant))
	}
}

func TestSelfPeculiaritySupportShrinkage(t *testing.T) {
	// A tiny deviant bar must score less than a large one with the same shape.
	base := []int{0, 50, 50, 50, 0}
	tiny := mapWithBars(5, base, []int{2, 0, 0, 0, 0})
	large := mapWithBars(5, base, []int{60, 0, 0, 0, 0})
	if SelfPeculiarity(tiny) >= SelfPeculiarity(large) {
		t.Errorf("tiny deviant (%v) must score below large deviant (%v)",
			SelfPeculiarity(tiny), SelfPeculiarity(large))
	}
}

func TestGlobalPeculiarity(t *testing.T) {
	rm := mapWithBars(5, []int{10, 0, 0, 0, 0})
	if got := GlobalPeculiarity(rm, nil); got != 0 {
		t.Errorf("no history must give 0, got %v", got)
	}
	seen := NewSeenSet()
	same := mapWithBars(5, []int{10, 0, 0, 0, 0})
	seen.Add(same)
	if got := GlobalPeculiarity(rm, seen); !almost(got, 0) {
		t.Errorf("identical history must give 0, got %v", got)
	}
	opposite := mapWithBars(5, []int{0, 0, 0, 0, 10})
	seen.Add(opposite)
	if got := GlobalPeculiarity(rm, seen); !almost(got, 1) {
		t.Errorf("disjoint history must give 1, got %v", got)
	}
}

func TestScoresBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rm := randomRatingMap(r)
		seen := NewSeenSet()
		if r.Intn(2) == 0 {
			seen.Add(randomRatingMap(r))
		}
		s := ComputeScores(rm, seen)
		for _, v := range s {
			if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestAggregateMaxDominates(t *testing.T) {
	s := Scores{0.2, 0.9, 0.1, 0.3}
	u := s.Aggregate(UtilityConfig{Aggregation: AggMax})
	// The tie-break blend keeps the value within epsilon of the max.
	if u < 0.85 || u > 0.9+1e-9 {
		t.Errorf("max aggregate = %v, want ≈ 0.9", u)
	}
	if got := s.Aggregate(UtilityConfig{Aggregation: AggAvg}); !almost(got, 0.375) {
		t.Errorf("avg aggregate = %v, want 0.375", got)
	}
	if got := s.Aggregate(UtilityConfig{Aggregation: AggSingle, Single: PecSelf}); got != 0.1 {
		t.Errorf("single aggregate = %v, want 0.1", got)
	}
}

func TestAggregateBreaksTies(t *testing.T) {
	// Equal maxima, different support from other criteria.
	strong := Scores{1.0, 0.8, 0.7, 0.6}
	weak := Scores{1.0, 0.1, 0.1, 0.1}
	cfg := UtilityConfig{Aggregation: AggMax}
	if strong.Aggregate(cfg) <= weak.Aggregate(cfg) {
		t.Error("tie-break must favor stronger supporting criteria")
	}
}

// TestDWUtilityPaperExample reproduces the worked example of §3.2.3: m=10
// seen maps, m_food=3, m_ambiance=1; u(rm_food)=0.6 and u(rm'_ambiance)=0.8
// give DW utilities 0.42 and 0.72.
func TestDWUtilityPaperExample(t *testing.T) {
	const (
		dimOverall = 0
		dimFood    = 1
		dimService = 2
		dimAmb     = 3
	)
	seen := NewSeenSet()
	addN := func(dim, n int) {
		for i := 0; i < n; i++ {
			rm := mapWithBars(5, []int{1, 1, 1, 1, 1})
			rm.Dim = dim
			seen.Add(rm)
		}
	}
	addN(dimOverall, 3)
	addN(dimFood, 3)
	addN(dimService, 3)
	addN(dimAmb, 1)
	if seen.Total() != 10 {
		t.Fatalf("m = %d, want 10", seen.Total())
	}
	cfg := UtilityConfig{}
	if got := DWUtility(0.6, dimFood, seen, cfg); !almost(got, 0.42) {
		t.Errorf("û(rm_food) = %v, want 0.42", got)
	}
	if got := DWUtility(0.8, dimAmb, seen, cfg); !almost(got, 0.72) {
		t.Errorf("û(rm'_ambiance) = %v, want 0.72", got)
	}
	// Weighting disabled returns the plain utility.
	cfg.DisableDimensionWeights = true
	if got := DWUtility(0.6, dimFood, seen, cfg); got != 0.6 {
		t.Errorf("unweighted = %v, want 0.6", got)
	}
}

func TestSeenSetWeights(t *testing.T) {
	seen := NewSeenSet()
	if w := seen.Weight(0); w != 1 {
		t.Errorf("empty history weight = %v, want 1", w)
	}
	rm := mapWithBars(5, []int{1, 0, 0, 0, 0})
	rm.Dim = 2
	seen.Add(rm)
	// Dimension 2 saturates the history; the floor keeps the weight positive.
	if w := seen.Weight(2); w <= 0 || w > 0.1 {
		t.Errorf("saturated dimension weight = %v, want small positive", w)
	}
	if w := seen.Weight(0); w != 1 {
		t.Errorf("unseen dimension weight = %v, want 1", w)
	}
	ws := seen.Weights(4)
	if !almost(ws[2], 1) || ws[0] != 0 {
		t.Errorf("getWeights vector = %v", ws)
	}
}

func TestSeenSetClone(t *testing.T) {
	seen := NewSeenSet()
	rm := mapWithBars(5, []int{1, 0, 0, 0, 0})
	seen.Add(rm)
	c := seen.Clone()
	c.Add(rm)
	if seen.Total() != 1 || c.Total() != 2 {
		t.Error("Clone must be independent")
	}
}

func TestUtilitySetNormalization(t *testing.T) {
	maps := []*RatingMap{
		mapWithBars(5, []int{50, 0, 0, 0, 0}),
		mapWithBars(5, []int{1, 1, 1, 1, 1}),
		mapWithBars(5, []int{0, 0, 0, 0, 3}),
	}
	seen := NewSeenSet()
	cfg := UtilityConfig{Aggregation: AggMax, Normalize: true}
	utils := UtilitySet(maps, seen, cfg)
	if len(utils) != 3 {
		t.Fatal("wrong arity")
	}
	for _, u := range utils {
		if u < 0 || u > 1+1e-9 {
			t.Errorf("normalized utility out of range: %v", u)
		}
	}
}

func TestCriteriaEstimateMatchesComputeScores(t *testing.T) {
	// The allocation-light estimator must agree with the materialized path.
	rng := rand.New(rand.NewSource(19))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomFixture(r)
		b := Builder{DB: db}
		keys := []Key{
			{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
			{Side: query.ItemSide, Attr: "city", Dim: 0},
		}
		recs := make([]int32, db.Ratings.Len())
		for i := range recs {
			recs[i] = int32(i)
		}
		acc := b.NewAccumulator(query.Description{}, keys)
		acc.Update(recs)
		seen := NewSeenSet()
		if r.Intn(2) == 0 {
			seen.Add(randomRatingMap(r))
		}
		for _, k := range keys {
			est, ok := acc.CriteriaEstimateOpt(k, seen, 1, PecTVD)
			if !ok {
				return false
			}
			exact := ComputeScores(acc.Snapshot(k), seen)
			for c := Criterion(0); c < NumCriteria; c++ {
				if math.Abs(est[c]-exact[c]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// randomFixture builds a random small database for the estimator property.
func randomFixture(r *rand.Rand) *dataset.DB {
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "city"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	genders := []string{"F", "M", "X"}
	cities := []string{"a", "b", "c", "d"}
	nU, nI := 2+r.Intn(6), 2+r.Intn(6)
	for i := 0; i < nU; i++ {
		reviewers.AppendRow("u"+itoa(i), map[string]string{"gender": genders[r.Intn(len(genders))]}, nil)
	}
	for i := 0; i < nI; i++ {
		items.AppendRow("i"+itoa(i), map[string]string{"city": cities[r.Intn(len(cities))]}, nil)
	}
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	n := 5 + r.Intn(60)
	for i := 0; i < n; i++ {
		rt.Append(r.Intn(nU), r.Intn(nI), []dataset.Score{dataset.Score(1 + r.Intn(5))})
	}
	db := dataset.NewDB("rand", reviewers, items, rt)
	db.Freeze()
	return db
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}
