package ratingmap

// The materialized scorer: the four criteria computed from a RatingMap's
// subgroups through stats distributions, one function per criterion, with
// the paper's raw forms beside the bounded ones. It is the oracle
// Accumulator.ScoresAt — the one scorer of program code — is held against
// (alignment_test, extensions_test, measures_test, figure3_test,
// kernel_test, displayed_test), and it is test code so that no program
// code can explain a map by other numbers than the ones that ranked it.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"subdex/internal/query"
	"subdex/internal/stats"
)

// Distribution returns the subgroup's rating distribution.
func (sg *Subgroup) Distribution() stats.Distribution {
	return stats.NewDistributionFromCounts(sg.Counts)
}

// StdDev returns the standard deviation of scores within the subgroup,
// feeding the agreement criterion.
func (sg *Subgroup) StdDev() float64 {
	d := sg.Distribution()
	mean, v := d.Mean(), 0.0
	for i, p := range d {
		diff := float64(i+1) - mean
		v += p * diff * diff
	}
	return math.Sqrt(v)
}

// RawConciseness is the compaction gain Conc(rm) = |g_R| / |rm| of §4.1.
func RawConciseness(rm *RatingMap) float64 {
	if rm.NumSubgroups() == 0 {
		return 0
	}
	return float64(rm.TotalRecords) / float64(rm.NumSubgroups())
}

// BoundedConciseness maps the compaction gain |g_R|/|rm| into (0,1] with a
// log transform: log(1+gain)/log(1+concGainRef), clamped at 1.
func BoundedConciseness(rm *RatingMap) float64 {
	return boundedConcisenessScaled(rm, 1)
}

func boundedConcisenessScaled(rm *RatingMap, recordScale float64) float64 {
	n := rm.NumSubgroups()
	if n == 0 {
		return 0
	}
	gain := recordScale * float64(rm.TotalRecords) / float64(n)
	c := math.Log1p(gain) / logConcGainRef
	if c > 1 {
		c = 1
	}
	return c
}

// RawAgreement is Agr(rm) = 1/σ̃ with σ̃ the average standard deviation of
// the subgroups (§4.1). A zero σ̃ (perfect agreement) returns +Inf; callers
// display the bounded form.
func RawAgreement(rm *RatingMap) float64 {
	sd := avgSubgroupSD(rm)
	if sd == 0 {
		return math.Inf(1)
	}
	return 1 / sd
}

// BoundedAgreement maps agreement into (0,1]: 1/(1+σ̃), monotone in the
// paper's 1/σ̃ and finite at σ̃ = 0.
func BoundedAgreement(rm *RatingMap) float64 {
	return 1 / (1 + avgSubgroupSD(rm))
}

// avgSubgroupSD is σ̃, the record-weighted average within-subgroup standard
// deviation.
func avgSubgroupSD(rm *RatingMap) float64 {
	total := 0
	sum := 0.0
	for i := range rm.Subgroups {
		n := rm.Subgroups[i].N
		sum += float64(n) * rm.Subgroups[i].StdDev()
		total += n
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// pecDist evaluates the configured peculiarity distance between two
// distributions, mapped into [0,1].
func pecDist(p, q stats.Distribution, m PeculiarityMeasure) float64 {
	if m == PecKL {
		return klDist(p, q)
	}
	d, err := totalVariation(p, q)
	if err != nil {
		return 0
	}
	return d
}

// totalVariation returns the total variation distance between two
// distributions over the same domain: ½ Σ |p_i − q_i|, in [0,1]. This is the
// peculiarity measure of the paper (§4.1).
func totalVariation(p, q stats.Distribution) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("total variation of mismatched domains %d vs %d", len(p), len(q))
	}
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2, nil
}

func TestTotalVariationKnownValues(t *testing.T) {
	p := stats.Distribution{1, 0}
	q := stats.Distribution{0, 1}
	if d, _ := totalVariation(p, q); d != 1 {
		t.Errorf("TVD of disjoint = %v, want 1", d)
	}
	if d, _ := totalVariation(p, p); d != 0 {
		t.Errorf("TVD of identical = %v, want 0", d)
	}
	// Unlike EMD, TVD does not see how far mass moved on the scale.
	base := stats.Distribution{1, 0, 0, 0, 0}
	near, _ := totalVariation(base, stats.Distribution{0, 1, 0, 0, 0})
	far, _ := totalVariation(base, stats.Distribution{0, 0, 0, 0, 1})
	if near != far {
		t.Errorf("TVD should not distinguish displacement: %v vs %v", near, far)
	}
}

func TestTotalVariationMismatch(t *testing.T) {
	if _, err := totalVariation(stats.Distribution{1}, stats.Distribution{0.5, 0.5}); err == nil {
		t.Fatal("expected error for mismatched domains")
	}
}

// TestTVDMetricProperties: on random histograms TVD is a metric bounded by
// 1 — range, identity, symmetry and the triangle inequality.
func TestTVDMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dist := func(n int) stats.Distribution {
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(20)
		}
		counts[rng.Intn(n)]++ // never all-zero
		return stats.NewDistributionFromCounts(counts)
	}
	tvd := func(p, q stats.Distribution) float64 {
		d, err := totalVariation(p, q)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	const eps = 1e-12
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(9)
		p, q, r := dist(n), dist(n), dist(n)
		dpq := tvd(p, q)
		if dpq < 0 || dpq > 1+eps || math.IsNaN(dpq) {
			t.Fatalf("TVD out of range: %g", dpq)
		}
		if math.Abs(dpq-tvd(q, p)) > eps {
			t.Fatalf("TVD asymmetric on %v, %v", p, q)
		}
		if d := tvd(p, p); d > eps {
			t.Fatalf("TVD identity violated: d(p,p)=%g", d)
		}
		if dpq+tvd(q, r)+eps < tvd(p, r) {
			t.Fatalf("TVD triangle inequality violated on %v, %v, %v", p, q, r)
		}
	}
}

// SelfPeculiarity is Pec_self(rm): the maximum total-variation distance of
// any subgroup's distribution from the whole map's distribution, in [0,1],
// with each subgroup's TVD shrunk by its support (see pecSupport).
func SelfPeculiarity(rm *RatingMap) float64 {
	return SelfPeculiarityWith(rm, PecTVD)
}

// SelfPeculiarityWith is SelfPeculiarity under an explicit peculiarity
// measure (§4.1 alternatives).
func SelfPeculiarityWith(rm *RatingMap, m PeculiarityMeasure) float64 {
	if len(rm.Subgroups) == 0 {
		return 0
	}
	whole := rm.Distribution()
	maxD := 0.0
	for i := range rm.Subgroups {
		sg := &rm.Subgroups[i]
		d := pecDist(sg.Distribution(), whole, m)
		d *= float64(sg.N) / (float64(sg.N) + pecSupport)
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// GlobalPeculiarity is Pec_global(rm, RM): the maximum TVD between rm's
// pooled distribution and the pooled distribution of each previously seen
// rating map. With nothing seen it is 0 (no history to deviate from).
func GlobalPeculiarity(rm *RatingMap, seen *SeenSet) float64 {
	return GlobalPeculiarityWith(rm, seen, PecTVD)
}

// GlobalPeculiarityWith is GlobalPeculiarity under an explicit measure.
func GlobalPeculiarityWith(rm *RatingMap, seen *SeenSet, m PeculiarityMeasure) float64 {
	if seen == nil || len(seen.dists) == 0 {
		return 0
	}
	mine := rm.Distribution()
	maxD := 0.0
	for _, d := range seen.dists {
		if len(d) != len(mine) {
			continue // different scale; incomparable
		}
		if dist := pecDist(mine, d, m); dist > maxD {
			maxD = dist
		}
	}
	return maxD
}

// ComputeScores evaluates the four bounded criteria for one map.
func ComputeScores(rm *RatingMap, seen *SeenSet) Scores {
	return ComputeScoresScaled(rm, seen, 1)
}

// ComputeScoresScaled evaluates the criteria treating the map as a partial
// result covering 1/recordScale of its group.
func ComputeScoresScaled(rm *RatingMap, seen *SeenSet, recordScale float64) Scores {
	return ComputeScoresOpt(rm, seen, recordScale, PecTVD)
}

// ComputeScoresOpt is ComputeScoresScaled with an explicit peculiarity
// measure.
func ComputeScoresOpt(rm *RatingMap, seen *SeenSet, recordScale float64, m PeculiarityMeasure) Scores {
	var s Scores
	s[Conciseness] = boundedConcisenessScaled(rm, recordScale)
	s[Agreement] = BoundedAgreement(rm)
	s[PecSelf] = SelfPeculiarityWith(rm, m)
	s[PecGlobal] = GlobalPeculiarityWith(rm, seen, m)
	return s
}

// ScoreSetOpt evaluates scores for a whole candidate set under peculiarity
// measure m.
func ScoreSetOpt(maps []*RatingMap, seen *SeenSet, m PeculiarityMeasure) []Scores {
	out := make([]Scores, len(maps))
	for i, rm := range maps {
		out[i] = ComputeScoresOpt(rm, seen, 1, m)
	}
	return out
}

// UtilitySet computes the DW utilities of a candidate set in one shot:
// scores, aggregation, then Equation 1.
func UtilitySet(maps []*RatingMap, seen *SeenSet, cfg UtilityConfig) []float64 {
	scores := ScoreSetOpt(maps, seen, cfg.Peculiarity)
	out := make([]float64, len(maps))
	for i, rm := range maps {
		out[i] = DWUtility(scores[i].Aggregate(cfg), rm.Dim, seen, cfg)
	}
	return out
}

// BenchmarkScoresAt is the cost of scoring by the reference against
// ScoresAt: one displayed demo map (the demo root's first, items.roast on
// overall) and every candidate of a Yelp accumulator the size of a
// recommendation candidate's — the root's groupings less one, as if a
// selector bound it: 23 × 4 dimensions = 92, through one PecMemo as
// finalize does — each against a seen set of 30 maps, a ten-step session's
// worth.
//
//	go test ./internal/ratingmap -run '^$' -bench ScoresAt -benchmem
func BenchmarkScoresAt(b *testing.B) {
	shapes := map[string]benchShape{}
	for _, sh := range benchShapes() {
		shapes[sh.name] = sh
	}
	for _, arm := range []struct {
		shape string
		one   *Key // nil: every candidate
		bound int  // groupings left out
	}{{"demo", &Key{Side: query.ItemSide, Attr: "roast"}, 0}, {"yelp", nil, 1}} {
		sh := shapes[arm.shape]
		qe, err := query.NewEngine(sh.db)
		if err != nil {
			b.Fatal(err)
		}
		var keys []Key
		for _, gc := range qe.GroupingCandidates(query.Description{})[arm.bound:] {
			for d := range sh.db.Ratings.Dimensions {
				keys = append(keys, Key{Side: gc.Side, Attr: gc.Attr, Dim: d})
			}
		}
		acc := (&Builder{DB: sh.db}).NewAccumulator(query.Description{}, keys)
		acc.Update(allRecords(sh.db))
		seen := NewSeenSet()
		for i := 0; seen.State().Total < 30; i = (i + 1) % len(keys) {
			seen.Add(acc.SnapshotAt(i))
		}
		at := make([]int, len(keys))
		for i := range at {
			at[i] = i
		}
		if arm.one != nil {
			i := acc.index(*arm.one)
			if i < 0 {
				b.Fatalf("%s has no candidate %v", sh.name, *arm.one)
			}
			at = []int{i}
		}
		maps := make([]*RatingMap, len(at))
		for j, i := range at {
			maps[j] = acc.SnapshotAt(i)
		}
		name := fmt.Sprintf("%s/candidates=%d", sh.name, len(at))
		b.Run(name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for _, rm := range maps {
					scoresSink = ComputeScoresOpt(rm, seen, 1, PecTVD)
				}
			}
		})
		b.Run(name+"/scoresat", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				var memo PecMemo
				for _, i := range at {
					scoresSink = acc.ScoresAt(i, seen, 1, PecTVD, &memo)
				}
			}
		})
	}
}

var scoresSink Scores
