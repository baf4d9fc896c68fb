package ratingmap

import (
	"fmt"
	"maps"
	"math"

	"subdex/internal/stats"
)

// Criterion enumerates the four interestingness criteria whose maximum
// defines the utility of a rating map (§3.2.3). Each is scored in [0,1] by
// Accumulator.ScoresAt, the one scorer.
type Criterion int

const (
	// Conciseness favors maps with a small, human-readable number of
	// subgroups summarizing many records (compaction gain [15]). The gain
	// |g_R|/|rm| is log-scaled, log(1+gain)/log(1+concGainRef) clamped at
	// 1, rather than replaced by 1/|rm|: a single bar over five records is
	// not concise, so utilities stay comparable across rating groups of
	// different sizes, as Equation 2 requires.
	Conciseness Criterion = iota
	// Agreement favors maps whose subgroups contain reviewers who agree
	// among themselves (low within-subgroup dispersion [16]), scored
	// 1/(1+σ̃) — monotone in the paper's 1/σ̃ and finite at σ̃ = 0. σ̃ is
	// the record-weighted mean subgroup standard deviation: the paper's
	// unweighted mean lets singleton bars (SD 0 by construction) pin
	// agreement to its maximum for any finely partitioned group.
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
//
// The paper min-max normalizes each criterion across the candidate set
// before aggregating, per Somech et al. [51], because its raw criteria
// (compaction gain, 1/σ̃) are unbounded. The criteria here are bounded
// forms that already share the [0,1] scale, so there is no normalization
// step: it would pin every per-criterion winner to exactly 1.0 and
// collapse the utility ranking into ties.
type UtilityConfig struct {
	Aggregation Aggregation
	Single      Criterion // used when Aggregation == AggSingle
	// Peculiarity selects the distribution distance for the peculiarity
	// criteria (default total variation).
	Peculiarity PeculiarityMeasure
	// DisableDimensionWeights turns Equation 1 off (the Fig. 9 "without
	// weights" arm).
	DisableDimensionWeights bool
}

// DefaultUtilityConfig returns the paper's configuration with the bounded
// criteria.
func DefaultUtilityConfig() UtilityConfig {
	return UtilityConfig{Aggregation: AggMax}
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

// pecSupport is the shrinkage constant applied to subgroup peculiarity: a
// bar's TVD is scaled by N/(N+pecSupport), so a one-record outlier bar
// cannot dominate the score while a substantial deviant bar keeps nearly
// all of it.
const pecSupport = 5.0

// klDist is the PecKL peculiarity distance between two distributions,
// mapped into [0,1] with 1 − e^(−KL). Total variation, the default, is
// already in [0,1]; ScoresAt computes it inline.
func klDist(p, q []float64) float64 {
	kl, err := stats.KLDivergence(p, q)
	if err != nil {
		return 0
	}
	return 1 - math.Exp(-kl)
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
