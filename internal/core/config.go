// Package core assembles SubDEx's SDE framework (§3.3, §4): the SDE Engine
// that materializes rating groups, the RM-Set Generator that solves the
// Diverse Rating Map Set Selection problem (Problem 1) by generating the
// top k×l dimension-weighted-utility maps and GMM-selecting the k most
// diverse, the Recommendation Builder that solves the Next-Step
// Recommendations problem (Problem 2), and sessions in the three
// exploration modes: User-Driven, Recommendation-Powered, Fully-Automated.
package core

import (
	"time"

	"subdex/internal/diversity"
	"subdex/internal/engine"
	"subdex/internal/query"
)

// Config carries the system parameters of the paper's Table 3 plus the
// engine and candidate-enumeration knobs.
type Config struct {
	// K is the number of rating maps displayed per step (default 3).
	K int
	// O is the number of next-step recommendations (default 3).
	O int
	// L is the pruning-diversity factor (default 3): the generator keeps
	// K×L maps, from which the K most diverse are selected. L=1 degenerates
	// to utility-only selection.
	L int
	// DiversityOnly ranks nothing by utility: the GMM selection runs over
	// all candidates (the "Diversity-Only" arm of Table 5).
	DiversityOnly bool
	// Engine configures the phase/pruning machinery.
	Engine engine.Config
	// Distance is the rating-map distance for diversity selection. The
	// default augments EMD with a small different-attribute/different-
	// dimension bonus (diversity.EMDWithAttribute): the paper observes that
	// EMD over rating distributions already favors different attributes on
	// its datasets; on synthetic data the explicit bonus is needed for the
	// same effect. Reported diversity numbers always use pure EMD.
	Distance diversity.Distance
	// Limits bound candidate-operation enumeration.
	Limits query.CandidateLimits
	// RecWorkers is the number of candidate operations evaluated
	// simultaneously by the Recommendation Builder; the paper sets it to
	// the number of cores. ≤1 is the No-Parallelism/Naive behaviour.
	RecWorkers int
	// RecSampleSize caps how many records of a candidate operation's group
	// are scanned when estimating its utility (0 = all). Sampling follows
	// the scalable-visualization practice the paper cites [36].
	RecSampleSize int
	// Scorer ranks candidate operations; nil selects Equation 2. Plug a
	// LogAffinityScorer (or any OperationScorer) here for personalized
	// recommendations, the replacement point §5.2.2 describes.
	Scorer OperationScorer
	// StepTimeout bounds the compute time of one exploration step
	// (Session.StepCtx); 0 (the default) is unlimited. When the deadline
	// hits after the engine's first phase boundary the step degrades to an
	// anytime result (StepResult.Degraded) instead of failing; before any
	// phase completes StepCtx returns context.DeadlineExceeded. The
	// recommendation pass — most of a guided step — is under the same
	// deadline: it is not started once the deadline has passed, and one
	// the deadline lands in is dropped whole (no partial list), the step
	// degrading with RecommendationsSkipped.
	StepTimeout time.Duration
	// GroupCacheRecords budgets the query engine's materialization cache
	// (total cached rating-record count; 0 selects the default, negative
	// disables). Candidate-operation evaluation revisits many selections;
	// the cache trades memory for repeated scans (cf. Data Canopy [57]).
	GroupCacheRecords int
	// Scanner, when non-nil, makes the RM-Generator scan record ranges
	// through a distributed backend (internal/cluster's coordinator)
	// instead of this process's sharded scan — bit-identical results by
	// Merge associativity, degraded anytime results on partition loss.
	// A scheduling knob like Engine.Workers: deliberately excluded from
	// the engine-config fingerprint, so a coordinator and its workers
	// (which run scanner-less) agree on fingerprints. NewExplorer binds
	// the explorer's fingerprint to the scanner when it exposes
	// BindFingerprint(string), arming the mixed-version cluster guard.
	Scanner engine.RangeScanner
	// EngineCacheRecords budgets the RM-Generator's cross-step
	// accumulator cache (total cached record count; 0 selects the
	// default, negative disables). Sessions thread this cache across
	// steps: a filter→generalize→filter walk that returns to an earlier
	// selection — and the Recommendation Builder's repeated evaluation of
	// overlapping candidate operations — skips the aggregation scan and
	// re-finalizes the exact cached histograms against the current seen
	// set, so cached and uncached steps return identical results. Only
	// complete unpruned scans are cacheable; Engine.Pruning = PruneNone
	// makes every completed scan one.
	EngineCacheRecords int
}

// DefaultConfig returns the Table 3 defaults with both pruning schemes and
// a worker per configured core.
func DefaultConfig() Config {
	return Config{
		K:                  3,
		O:                  3,
		L:                  3,
		Engine:             engine.DefaultConfig(),
		Distance:           diversity.EMDWithAttribute,
		Limits:             query.DefaultCandidateLimits(),
		RecWorkers:         1,
		RecSampleSize:      2000,
		GroupCacheRecords:  500_000,
		EngineCacheRecords: 1_000_000,
	}
}

// normalized fills defaults for zero fields so a partially specified Config
// behaves sensibly.
func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.O <= 0 {
		c.O = d.O
	}
	if c.L <= 0 {
		c.L = d.L
	}
	if c.Engine.Phases <= 0 {
		c.Engine = d.Engine
	}
	if c.Distance == nil {
		c.Distance = d.Distance
	}
	if c.RecWorkers <= 0 {
		c.RecWorkers = 1
	}
	if c.GroupCacheRecords == 0 {
		c.GroupCacheRecords = d.GroupCacheRecords
	}
	if c.EngineCacheRecords == 0 {
		c.EngineCacheRecords = d.EngineCacheRecords
	}
	return c
}

// Mode is an exploration mode (§3.3).
type Mode int

const (
	// UserDriven shows rating maps only; the user provides operations.
	UserDriven Mode = iota
	// RecommendationPowered shows rating maps plus top-o next-step
	// recommendations; the user picks one or provides her own operation.
	RecommendationPowered
	// FullyAutomated applies the top-1 recommendation at every step for a
	// fixed-length path.
	FullyAutomated
)

func (m Mode) String() string {
	switch m {
	case UserDriven:
		return "User-Driven"
	case RecommendationPowered:
		return "Recommendation-Powered"
	case FullyAutomated:
		return "Fully-Automated"
	default:
		return "Mode(?)"
	}
}
