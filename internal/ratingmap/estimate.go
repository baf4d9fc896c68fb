package ratingmap

import (
	"math"
	"slices"
)

// stackScale and stackBars size ScoresAt's stack buffers; rating scales and
// bar counts beyond them are scored the same way, from the heap.
const stackScale, stackBars = 16, 64

// ScoresAt computes the four bounded criteria of candidate Keys()[i] under
// peculiarity measure m from its current partial state, without
// materializing a RatingMap (no subgroup structs, no sorting). recordScale
// is total/processed records: it projects conciseness to the full group
// from a partial scan (bar counts saturate early; record counts grow
// linearly). It is the one scorer — per phase, at the end, and behind every
// displayed map's explanation (engine.Result.Scores) — some 90 calls per
// candidate operation of a recommendation pass, most over a few dozen
// records — so the block is walked once, the subgroups found are revisited
// from a list, and nothing is allocated. memo, when non-nil, shares global
// peculiarity among the candidates of one scoring pass (see PecMemo); the
// scores are the same bits with and without it.
func (a *Accumulator) ScoresAt(i int, seen *SeenSet, recordScale float64, m PeculiarityMeasure, memo *PecMemo) (s Scores) {
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
	slot, known := memo.slot(pooled) // while pooled still holds counts
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
			t = klDist(sub, pooled)
		}
		t *= fn / (fn + pecSupport)
		if t > maxPec {
			maxPec = t
		}
	}
	s[Agreement] = 1 / (1 + sdSum/total)
	s[PecSelf] = maxPec

	// Global peculiarity against the seen pooled distributions.
	if known {
		s[PecGlobal] = memo.pec[slot]
		return s
	}
	s[PecGlobal] = seen.maxDistAgainst(pooled, m)
	if slot >= 0 {
		memo.pec[slot] = s[PecGlobal]
	}
	return s
}

// pecMemoSize is how many pooled histograms a PecMemo holds. An
// accumulator's candidates pool to few distinct ones — every atomic
// attribute without missing values pools a dimension to the same counts, so
// only multi-valued attributes and attributes with missing values add their
// own: all candidates of a strided batch make 8 on the Yelp shape (96
// candidates) and on Hotels (32), 2 on MovieLens (12), 4 on demo. Twice
// that leaves room for real data's missing values; past it the memo evicts
// round-robin and stays exact.
const pecMemoSize = 16

// PecMemo shares global peculiarity among the candidates of one scoring
// pass. Global peculiarity is a function of a candidate's pooled
// distribution, the seen set and the measure, and its cost grows with the
// session's seen set; the pooled distribution is the pooled counts divided
// by their sum, so candidates of equal scale and equal counts — integers,
// exact in a float64 — have bit-identical distributions and bit-identical
// results. The memo is keyed by the counts and computes once per distinct
// histogram.
//
// A memo is good for one seen-set state and one measure: the zero value is
// ready, each worker of a pass declares its own (no locking), and none
// outlives the pass. A nil *PecMemo, or a scale beyond stackScale, computes
// every time.
type PecMemo struct {
	n, next int // slots filled; the slot the next eviction takes
	scale   [pecMemoSize]int
	counts  [pecMemoSize][stackScale]float64
	pec     [pecMemoSize]float64
}

// slot returns the index in pec of the pooled counts' global peculiarity and
// whether it is already there; when it is not, the slot is claimed for the
// counts and the caller computes the value and stores it. Slot -1 means no
// memo: compute, store nothing.
func (pm *PecMemo) slot(counts []float64) (slot int, known bool) {
	if pm == nil || len(counts) > stackScale {
		return -1, false
	}
	for i := 0; i < pm.n; i++ {
		if pm.scale[i] == len(counts) && slices.Equal(pm.counts[i][:len(counts)], counts) {
			return i, true
		}
	}
	i := pm.next
	pm.next = (pm.next + 1) % pecMemoSize
	pm.n = max(pm.n, i+1)
	pm.scale[i] = len(counts)
	copy(pm.counts[i][:], counts)
	return i, false
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
			t = klDist(dist, d)
		}
		if t > maxD {
			maxD = t
		}
	}
	return maxD
}
