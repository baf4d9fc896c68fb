package ratingmap

import "math"

// CriteriaEstimateOpt is ScoresAt for a candidate given by key; ok is false
// for an unknown one.
func (a *Accumulator) CriteriaEstimateOpt(k Key, seen *SeenSet, recordScale float64, m PeculiarityMeasure) (s Scores, ok bool) {
	i := a.index(k)
	if i < 0 {
		return s, false
	}
	return a.ScoresAt(i, seen, recordScale, m), true
}

// stackScale and stackBars size ScoresAt's stack buffers; rating scales and
// bar counts beyond them are scored the same way, from the heap.
const stackScale, stackBars = 16, 64

// ScoresAt computes the four bounded criteria of candidate Keys()[i] under
// peculiarity measure m from its current partial state, without
// materializing a RatingMap (no subgroup structs, no sorting). recordScale
// projects conciseness to the full group as in ComputeScoresScaled. It is
// the engine's scorer, per phase and at the end — some 90 calls per
// candidate operation of a recommendation pass, most over a few dozen
// records — so the block is walked once, the subgroups found are revisited
// from a list, and nothing is allocated.
func (a *Accumulator) ScoresAt(i int, seen *SeenSet, recordScale float64, m PeculiarityMeasure) (s Scores) {
	p := &a.parts[i]
	stride := p.scale + 1
	var distBuf [2 * stackScale]float64
	dists := distBuf[:]
	if 2*p.scale > len(dists) {
		dists = make([]float64, 2*p.scale)
	}
	pooled, sub := dists[:p.scale], dists[p.scale:2*p.scale]
	var barBuf [stackBars]int32
	bars := barBuf[:0] // where each subgroup's row starts in the block

	// Pooled distribution, subgroups and record total in one walk.
	nRecords := 0
	for base := stride; base < len(p.hist); base += stride {
		c := p.hist[base+1 : base+stride]
		n := 0
		for _, v := range c {
			n += int(v)
		}
		if n == 0 {
			continue
		}
		nRecords += n
		for i, v := range c {
			pooled[i] += float64(v)
		}
		bars = append(bars, int32(base))
	}
	if len(bars) == 0 {
		return s
	}
	total := float64(nRecords)
	for i := range pooled {
		pooled[i] /= total
	}

	// Conciseness (projected compaction gain, log-scaled).
	gain := recordScale * total / float64(len(bars))
	conc := math.Log1p(gain) / logConcGainRef
	if conc > 1 {
		conc = 1
	}
	s[Conciseness] = conc

	// Agreement (record-weighted subgroup SD) and self peculiarity
	// (support-shrunk max subgroup distance), one pass per subgroup.
	sdSum := 0.0
	maxPec := 0.0
	for _, base := range bars {
		c := p.hist[int(base)+1 : int(base)+stride]
		n := 0
		for _, v := range c {
			n += int(v)
		}
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
			sub[i] = float64(v) / fn
			tvd += math.Abs(sub[i] - pooled[i])
		}
		sdSum += fn * math.Sqrt(variance/fn)
		t := tvd / 2
		if m != PecTVD {
			t = pecDist(sub, pooled, m)
		}
		t *= fn / (fn + pecSupport)
		if t > maxPec {
			maxPec = t
		}
	}
	s[Agreement] = 1 / (1 + sdSum/total)
	s[PecSelf] = maxPec

	// Global peculiarity against the seen pooled distributions.
	s[PecGlobal] = seen.maxDistAgainst(pooled, m)
	return s
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
