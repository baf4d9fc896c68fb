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
	return sg.Distribution().StdDev()
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
	d, err := stats.TotalVariation(p, q)
	if err != nil {
		return 0
	}
	return d
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
		for i := 0; seen.Total() < 30; i = (i + 1) % len(keys) {
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
