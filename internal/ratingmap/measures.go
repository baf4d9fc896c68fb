package ratingmap

import (
	"fmt"
	"maps"
	"math"

	"subdex/internal/stats"
)

// Criterion enumerates the four interestingness criteria whose maximum
// defines the utility of a rating map (§3.2.3).
type Criterion int

const (
	// Conciseness favors maps with a small, human-readable number of
	// subgroups summarizing many records (compaction gain [15]).
	Conciseness Criterion = iota
	// Agreement favors maps whose subgroups contain reviewers who agree
	// among themselves (low within-subgroup dispersion [16]).
	Agreement
	// PecSelf (self peculiarity) favors maps containing a subgroup whose
	// rating distribution deviates from the whole group's (TVD, max over
	// subgroups, following [51]).
	PecSelf
	// PecGlobal (global peculiarity) favors maps whose pooled distribution
	// deviates from previously displayed maps (TVD, max over seen maps).
	PecGlobal

	// NumCriteria is the number of criteria.
	NumCriteria
)

func (c Criterion) String() string {
	switch c {
	case Conciseness:
		return "conciseness"
	case Agreement:
		return "agreement"
	case PecSelf:
		return "self-peculiarity"
	case PecGlobal:
		return "global-peculiarity"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Scores holds one value per criterion, either raw or normalized.
type Scores [NumCriteria]float64

// Best returns the winning criterion and its value — the attribution the
// UI shows when explaining why a rating map was selected (its utility is
// the maximum over criteria).
func (s Scores) Best() (Criterion, float64) {
	best := Criterion(0)
	for c := Criterion(1); c < NumCriteria; c++ {
		if s[c] > s[best] {
			best = c
		}
	}
	return best, s[best]
}

// Aggregation selects how the per-criterion scores combine into a single
// utility. The paper uses Max; Avg and the single-criterion variants exist
// for the §5.2.3 "Utility criteria" ablation.
type Aggregation int

const (
	// AggMax is the paper's utility: the best-captured facet wins.
	AggMax Aggregation = iota
	// AggAvg averages all four criteria (shown inferior in §5.2.3).
	AggAvg
	// AggSingle uses only the criterion set in UtilityConfig.Single.
	AggSingle
)

// PeculiarityMeasure selects the distribution distance behind the two
// peculiarity criteria. The paper's prototype uses total variation; §4.1
// names Kullback-Leibler divergence and the Outlier Function as
// alternatives, implemented here for the ablation benches.
type PeculiarityMeasure int

const (
	// PecTVD is the total variation distance (the paper's choice).
	PecTVD PeculiarityMeasure = iota
	// PecKL is the (smoothed, normalized) Kullback-Leibler divergence.
	PecKL
)

func (m PeculiarityMeasure) String() string {
	switch m {
	case PecTVD:
		return "tvd"
	case PecKL:
		return "kl"
	default:
		return fmt.Sprintf("PeculiarityMeasure(%d)", int(m))
	}
}

// UtilityConfig parameterizes utility computation; the zero value is the
// paper's configuration (max aggregation, TVD peculiarity, dimension
// weighting on).
type UtilityConfig struct {
	Aggregation Aggregation
	Single      Criterion // used when Aggregation == AggSingle
	// Peculiarity selects the distribution distance for the peculiarity
	// criteria (default total variation).
	Peculiarity PeculiarityMeasure
	// DisableDimensionWeights turns Equation 1 off (the Fig. 9 "without
	// weights" arm).
	DisableDimensionWeights bool
	// Normalize applies min-max normalization of each criterion across the
	// candidate set before aggregating, per Somech et al. [51]. The paper
	// needs this because its raw criteria (compaction gain, 1/σ̃) are
	// unbounded; this implementation instead uses bounded forms that
	// already share the [0,1] scale, so normalization defaults to off —
	// min-max normalization would pin every per-criterion winner to
	// exactly 1.0 and collapse the utility ranking into ties.
	Normalize bool
}

// DefaultUtilityConfig returns the paper's configuration with the bounded
// criteria (see Normalize).
func DefaultUtilityConfig() UtilityConfig {
	return UtilityConfig{Aggregation: AggMax}
}

// RawConciseness is the compaction gain Conc(rm) = |g_R| / |rm| of §4.1.
func RawConciseness(rm *RatingMap) float64 {
	if rm.NumSubgroups() == 0 {
		return 0
	}
	return float64(rm.TotalRecords) / float64(rm.NumSubgroups())
}

// concGainRef is the compaction gain (records per bar) mapped to bounded
// conciseness 1.0; gains are log-scaled against it so the criterion
// discriminates across the whole practical range instead of saturating.
// The reference is set high (10⁶) so that ordinary coarse groupings score
// around 0.5 and the peculiarity/agreement criteria — which reach 0.7-1.0
// exactly when something anomalous is on screen — can win the
// max-aggregation; a low reference lets conciseness flood the utility and
// blinds the recommender to anomalies.
const concGainRef = 1_000_000.0

// logConcGainRef is the denominator of bounded conciseness, taken once: the
// engine evaluates the criterion for every candidate of every group.
var logConcGainRef = math.Log1p(concGainRef)

// BoundedConciseness maps the compaction gain |g_R|/|rm| into (0,1] with a
// log transform: log(1+gain)/log(1+concGainRef), clamped at 1. Unlike a
// pure 1/|rm|, this keeps the paper's absolute intent — a single bar over
// five records is NOT concise in the compaction-gain sense — so utilities
// stay comparable across rating groups of different sizes (which
// Equation 2 requires).
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

// avgSubgroupSD is σ̃, the average within-subgroup standard deviation. The
// average is record-weighted: the paper's unweighted mean lets singleton
// bars (SD = 0 by construction) pin agreement to its maximum for any
// finely partitioned group, which collapses the utility ranking. Weighting
// by bar size preserves the paper's intent — reward genuine within-group
// consensus — without the small-sample pathology.
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

// pecSupport is the shrinkage constant applied to subgroup peculiarity: a
// bar's TVD is scaled by N/(N+pecSupport), so a one-record outlier bar
// cannot dominate the score while a substantial deviant bar keeps nearly
// all of it.
const pecSupport = 5.0

// pecDist evaluates the configured peculiarity distance between two
// distributions, mapped into [0,1]: TVD is already there; KL divergence is
// squashed with 1 − e^(−KL).
func pecDist(p, q stats.Distribution, m PeculiarityMeasure) float64 {
	switch m {
	case PecKL:
		kl, err := stats.KLDivergence(p, q)
		if err != nil {
			return 0
		}
		return 1 - math.Exp(-kl)
	default:
		d, err := stats.TotalVariation(p, q)
		if err != nil {
			return 0
		}
		return d
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
// result covering 1/recordScale of its group: the phase-based engine passes
// recordScale = total/processed so the conciseness estimate projects to the
// full group (bar counts saturate early; record counts grow linearly).
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
// measure m, optionally min-max normalizing each criterion across the
// candidates (the [51] normalization the paper applies because criteria
// live on different scales).
func ScoreSetOpt(maps []*RatingMap, seen *SeenSet, normalize bool, m PeculiarityMeasure) []Scores {
	out := make([]Scores, len(maps))
	for i, rm := range maps {
		out[i] = ComputeScoresOpt(rm, seen, 1, m)
	}
	if normalize && len(maps) > 1 {
		col := make([]float64, len(maps))
		for c := Criterion(0); c < NumCriteria; c++ {
			for i := range out {
				col[i] = out[i][c]
			}
			stats.MinMaxNormalize(col)
			for i := range out {
				out[i][c] = col[i]
			}
		}
	}
	return out
}

// tieEps blends a small fraction of the non-maximal criteria into the
// max-aggregated utility. Pure max ties at the criterion ceilings (e.g.
// agreement is exactly 1.0 for every all-same-score group, however tiny),
// leaving top-1 selection to enumeration order; the blend is order-
// preserving away from ties and resolves them toward maps whose other
// criteria — notably size-sensitive conciseness — are also strong.
const tieEps = 0.05

// Aggregate folds the criterion scores into the (unweighted) utility u(rm).
func (s Scores) Aggregate(cfg UtilityConfig) float64 {
	switch cfg.Aggregation {
	case AggAvg:
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		return sum / float64(NumCriteria)
	case AggSingle:
		return s[cfg.Single]
	default: // AggMax
		best := s[0]
		sum := 0.0
		for _, v := range s {
			sum += v
			if v > best {
				best = v
			}
		}
		rest := (sum - best) / float64(NumCriteria-1)
		return (best + tieEps*rest) / (1 + tieEps)
	}
}

// SeenSet tracks the rating maps displayed so far across the exploration:
// their pooled distributions (for global peculiarity) and per-dimension
// counts (for the dimension weights of Algorithm 2 / Equation 1).
type SeenSet struct {
	dists    []stats.Distribution
	dimCount map[int]int
	total    int
}

// NewSeenSet returns an empty history.
func NewSeenSet() *SeenSet {
	return &SeenSet{dimCount: make(map[int]int)}
}

// Add records a displayed rating map.
func (s *SeenSet) Add(rm *RatingMap) {
	s.dists = append(s.dists, rm.Distribution())
	s.dimCount[rm.Dim]++
	s.total++
}

// AddDist records a displayed map by its pooled distribution and
// dimension alone. This is the degraded-step replay path: an anytime
// result's partial scan cannot be re-run deterministically, so session
// recovery re-applies its recorded observable effect on the history
// instead of recomputing it.
func (s *SeenSet) AddDist(dim int, dist []float64) {
	s.dists = append(s.dists, stats.Distribution(append([]float64(nil), dist...)))
	s.dimCount[dim]++
	s.total++
}

// Total returns the number of maps seen (m in Equation 1).
func (s *SeenSet) Total() int { return s.total }

// Weight returns the Equation 1 factor (1 − m_{r_d}/m) for dimension d.
// Before anything is seen it is 1 for every dimension. When every seen map
// aggregated dimension d the literal factor is 0, which — on a database
// with a single rating dimension — would zero every utility and collapse
// the ranking; the factor is therefore floored at a small positive value so
// suppression stays strong but order-preserving.
func (s *SeenSet) Weight(d int) float64 {
	if s == nil || s.total == 0 {
		return 1
	}
	w := 1 - float64(s.dimCount[d])/float64(s.total)
	const floor = 0.05
	if w < floor {
		return floor
	}
	return w
}

// Weights materializes the getWeights vector of Algorithm 2: the per-
// dimension frequencies m_{r_i}/m (NOT the Eq. 1 factor; callers subtract
// from 1 when weighting utilities).
func (s *SeenSet) Weights(numDims int) []float64 {
	w := make([]float64, numDims)
	if s == nil || s.total == 0 {
		return w
	}
	for d := 0; d < numDims; d++ {
		w[d] = float64(s.dimCount[d]) / float64(s.total)
	}
	return w
}

// SeenState is the serializable form of a SeenSet: the pooled
// distributions in display order, the per-dimension counts, and the
// total. It exists so session snapshots can both persist the history
// and verify that a replayed session reconstructed it exactly.
type SeenState struct {
	Dists [][]float64 `json:"dists,omitempty"`
	Dims  map[int]int `json:"dims,omitempty"`
	Total int         `json:"total"`
}

// State exports the history for serialization.
func (s *SeenSet) State() SeenState {
	st := SeenState{Total: s.total}
	if len(s.dists) > 0 {
		st.Dists = make([][]float64, len(s.dists))
		for i, d := range s.dists {
			st.Dists[i] = append([]float64(nil), d...)
		}
	}
	if len(s.dimCount) > 0 {
		st.Dims = maps.Clone(s.dimCount)
	}
	return st
}

// EqualState reports whether the history matches an exported state
// exactly — same distributions in the same order, same per-dimension
// counts, same total. The engine is bit-deterministic, so replayed
// sessions must match with float equality, not tolerance.
func (s *SeenSet) EqualState(st SeenState) bool {
	if s.total != st.Total || len(s.dists) != len(st.Dists) || len(s.dimCount) != len(st.Dims) {
		return false
	}
	for i, d := range s.dists {
		o := st.Dists[i]
		if len(d) != len(o) {
			return false
		}
		for j := range d {
			if d[j] != o[j] {
				return false
			}
		}
	}
	return maps.Equal(s.dimCount, st.Dims)
}

// Clone returns an independent copy of the history, used when evaluating
// hypothetical next-step operations without committing their maps.
func (s *SeenSet) Clone() *SeenSet {
	return &SeenSet{
		dists:    append([]stats.Distribution(nil), s.dists...),
		dimCount: maps.Clone(s.dimCount),
		total:    s.total,
	}
}

// DWUtility applies Equation 1: û(rm) = (1 − m_{r_i}/m) · u(rm). With
// weighting disabled in cfg it returns the plain utility.
func DWUtility(u float64, dim int, seen *SeenSet, cfg UtilityConfig) float64 {
	if cfg.DisableDimensionWeights {
		return u
	}
	return seen.Weight(dim) * u
}

// UtilitySet computes the DW utilities of a candidate set in one shot:
// scores, optional normalization, aggregation, then Equation 1.
func UtilitySet(maps []*RatingMap, seen *SeenSet, cfg UtilityConfig) []float64 {
	scores := ScoreSetOpt(maps, seen, cfg.Normalize, cfg.Peculiarity)
	out := make([]float64, len(maps))
	for i, rm := range maps {
		out[i] = DWUtility(scores[i].Aggregate(cfg), rm.Dim, seen, cfg)
	}
	return out
}
