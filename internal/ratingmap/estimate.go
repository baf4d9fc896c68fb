package ratingmap

import (
	"math"

	"subdex/internal/dataset"
)

// CriteriaEstimate computes the four bounded criteria of a candidate's
// current partial state directly from the accumulator, without
// materializing a RatingMap (no subgroup structs, no sorting). This is the
// per-phase estimation path of the engine: with tens of candidates times
// ten phases, estimation cost must stay far below scan cost or pruning
// cannot pay for itself. recordScale projects conciseness to the full
// group as in ComputeScoresScaled. ok is false for unknown candidates.
func (a *Accumulator) CriteriaEstimate(k Key, seen *SeenSet, recordScale float64) (Scores, bool) {
	return a.CriteriaEstimateOpt(k, seen, recordScale, PecTVD)
}

// CriteriaEstimateOpt is CriteriaEstimate under an explicit peculiarity
// measure, keeping the pruning estimates consistent with the configured
// exact scoring.
func (a *Accumulator) CriteriaEstimateOpt(k Key, seen *SeenSet, recordScale float64, m PeculiarityMeasure) (s Scores, ok bool) {
	p := a.find(k)
	if p == nil {
		return s, false
	}
	// Pooled distribution, subgroup count and record total in one walk.
	pooled := make([]float64, p.scale)
	nsub, nRecords := 0, 0
	p.rows(func(_ dataset.ValueID, c []int32, n int) {
		nsub++
		nRecords += n
		for i, v := range c {
			pooled[i] += float64(v)
		}
	})
	if nsub == 0 {
		return s, true
	}
	total := float64(nRecords)
	for i := range pooled {
		pooled[i] /= total
	}

	// Conciseness (projected compaction gain, log-scaled).
	gain := recordScale * total / float64(nsub)
	conc := math.Log1p(gain) / math.Log1p(concGainRef)
	if conc > 1 {
		conc = 1
	}
	s[Conciseness] = conc

	// Agreement (record-weighted subgroup SD) and self peculiarity
	// (support-shrunk max subgroup TVD), one pass per subgroup.
	sdSum := 0.0
	maxTVD := 0.0
	p.rows(func(_ dataset.ValueID, c []int32, n int) {
		fn := float64(n)
		mean := 0.0
		for i, v := range c {
			mean += float64(i+1) * float64(v)
		}
		mean /= fn
		variance := 0.0
		tvd := 0.0
		for i, v := range c {
			d := float64(i+1) - mean
			variance += float64(v) * d * d
			tvd += math.Abs(float64(v)/fn - pooled[i])
		}
		sdSum += fn * math.Sqrt(variance/fn)
		var t float64
		if m == PecTVD {
			t = tvd / 2
		} else {
			// Non-TVD measures need the subgroup distribution explicitly.
			sub := make([]float64, len(c))
			for i, v := range c {
				sub[i] = float64(v) / fn
			}
			t = pecDist(sub, pooled, m)
		}
		t *= fn / (fn + pecSupport)
		if t > maxTVD {
			maxTVD = t
		}
	})
	s[Agreement] = 1 / (1 + sdSum/total)
	s[PecSelf] = maxTVD

	// Global peculiarity against the seen pooled distributions.
	s[PecGlobal] = seen.maxDistAgainst(pooled, m)
	return s, true
}

// maxDistAgainst returns the maximum peculiarity distance between dist and
// the pooled distributions of the seen maps (0 with no history or only
// incomparable scales).
func (s *SeenSet) maxDistAgainst(dist []float64, m PeculiarityMeasure) float64 {
	if s == nil {
		return 0
	}
	maxD := 0.0
	for _, d := range s.dists {
		if len(d) != len(dist) {
			continue
		}
		var t float64
		if m == PecTVD {
			sum := 0.0
			for i := range d {
				sum += math.Abs(d[i] - dist[i])
			}
			t = sum / 2
		} else {
			t = pecDist(dist, d, m)
		}
		if t > maxD {
			maxD = t
		}
	}
	return maxD
}
