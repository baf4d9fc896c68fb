// Package core assembles SubDEx's SDE framework (§3.3, §4): the SDE Engine
// that materializes rating groups, the RM-Set Generator that solves the
// Diverse Rating Map Set Selection problem (Problem 1) by generating the
// top k×l dimension-weighted-utility maps and GMM-selecting the k most
// diverse, the Recommendation Builder that solves the Next-Step
// Recommendations problem (Problem 2), and sessions in the three
// exploration modes: User-Driven, Recommendation-Powered, Fully-Automated.
package core

import (
	"fmt"
	"time"

	"subdex/internal/diversity"
	"subdex/internal/engine"
)

// Config carries the system parameters of the paper's Table 3 (k, o, l),
// the engine's phase and pruning settings, candidate-enumeration caps and
// the step deadline. DESIGN.md "Knobs" names, for every field, the binary
// flag or internal/experiments run that sets it off its default, and
// TestKnobCensus fails on a field that table does not list. There is no
// hook for a caller-supplied ranking: the Recommendation Builder ranks
// candidate operations by Equation 2 alone, which is what
// Explorer.Fingerprint and a restored session's replay assume.
//
// The zero value is not usable: start from DefaultConfig() and change the
// fields you mean to change — NewExplorer rejects a config whose K, O, L,
// Engine.Phases or Distance is unset rather than guessing a value for it.
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
	Limits CandidateLimits
	// RecSampleSize caps how many records of a candidate operation's group
	// are scanned when estimating its utility (0 = all). Sampling follows
	// the scalable-visualization practice the paper cites [36].
	RecSampleSize int
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
}

// CandidateLimits bounds candidate-operation enumeration
// (RecommendationBuilder.CandidateOps) so recommendation building stays
// interactive on wide schemas. Both caps change which operations a step
// recommends, so Explorer.Fingerprint covers them.
type CandidateLimits struct {
	// MaxValuesPerAttribute caps how many subgroups of each displayed map
	// are drilled into and how many values a bound attribute may change to
	// (0 = unlimited). Single-pair filter additions are never capped.
	MaxValuesPerAttribute int
	// MaxCandidates caps the total number of candidates (0 = unlimited).
	MaxCandidates int
}

// Cache budgets. Both caches are shared by every session of an explorer
// and return exactly what a recomputation would; DESIGN.md "Mechanisms and
// the ledger rows that justify them" records what each one buys on the
// guided_walk workload.
const (
	// groupCacheBytes budgets the query engine's group cache, in bytes of
	// record lists, bitsets and bucket offsets: walks revisit selections,
	// every recommendation pass materializes the displayed group's
	// roll-ups, and every pass partitions cur and those roll-ups again —
	// the root on every step of every walk that starts there — and the
	// cache trades memory for those repeated scans (cf. Data Canopy [57]).
	// The smallest budget whose step_p50_ms is within noise of the
	// largest tried. bench guided_walk (Yelp 0.25, two shared vCPUs,
	// 2026-10-16), seeds 1–4, with the budget at
	//
	//	         step_p50_ms                 median  alloc_kb_per_step
	//	 2 MiB   11.61 11.49 11.47 11.06     11.48   1 859–1 889
	//	 4 MiB    9.61  9.88  9.43  9.54      9.58   1 783–1 813
	//	 8 MiB    8.62  8.52  8.63  8.32      8.57   1 718–1 762
	//	16 MiB   10.51  8.66  8.58  8.27      8.62   1 695–1 738
	groupCacheBytes = 8 << 20
	// engineCacheRecords budgets the RM-Generator's cross-step accumulator
	// cache, in rating records. A filter→generalize→filter walk that
	// returns to an earlier selection — and the Recommendation Builder's
	// repeated evaluation of overlapping candidate operations — skips the
	// aggregation scan and re-finalizes the exact cached histograms against
	// the current seen set. Only complete unpruned scans are cacheable;
	// Engine.Pruning = PruneNone makes every completed scan one.
	engineCacheRecords = 1_000_000
)

// DefaultConfig returns the Table 3 defaults with both pruning schemes and
// unlimited candidate enumeration. It is the only place a default is
// written.
func DefaultConfig() Config {
	return Config{
		K:             3,
		O:             3,
		L:             3,
		Engine:        engine.DefaultConfig(),
		Distance:      diversity.EMDWithAttribute,
		RecSampleSize: 2000,
	}
}

// validate rejects a config that did not start from DefaultConfig(): the
// fields every step divides by, loops over or calls through.
func (c Config) validate() error {
	if c.K < 1 || c.O < 1 || c.L < 1 || c.Engine.Phases < 1 || c.Distance == nil {
		return fmt.Errorf("core: config needs K, O, L, Engine.Phases ≥ 1 and a Distance (got K=%d O=%d L=%d Engine.Phases=%d Distance set=%t); start from DefaultConfig()",
			c.K, c.O, c.L, c.Engine.Phases, c.Distance != nil)
	}
	return nil
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
