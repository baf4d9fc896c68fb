// Package subdex is the public API of this SubDEx reproduction: a framework
// for Subjective Data Exploration (SDE) after Amer-Yahia, Milo & Youngmann,
// "Exploring Ratings in Subjective Databases" (SIGMOD 2021; demonstrated at
// ICDE 2021 as SubDEx).
//
// A subjective database is a triple ⟨Items, Reviewers, Ratings⟩. SubDEx
// lets an analyst explore it in guided multi-step sessions: at every step
// the current reviewer/item selection is aggregated into a small set of
// useful and diverse rating maps (histograms of rating scores grouped by
// one attribute), and the system can recommend the most promising next
// filter/generalize operations.
//
// Quick start:
//
//	db, _ := subdex.GenerateYelp(subdex.GenConfig{Scale: 0.01})
//	ex, _ := subdex.NewExplorer(db, subdex.DefaultConfig())
//	sess, _ := subdex.NewSession(ex, subdex.RecommendationPowered, subdex.Everything())
//	step, _ := sess.Step()
//	for _, rm := range step.Maps {
//	    fmt.Println(ex.RenderMap(rm))
//	}
//	_ = sess.ApplyRecommendation(0)
package subdex

import (
	"context"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/diversity"
	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Re-exported core types. The facade keeps downstream imports to a single
// package while the implementation stays modular under internal/.
type (
	// DB is a subjective database ⟨Items, Reviewers, Ratings⟩.
	DB = dataset.DB
	// Config carries the system parameters (k, o, l, engine knobs). Start
	// from DefaultConfig(): NewExplorer rejects the zero value.
	Config = core.Config
	// Explorer is the SDE engine over one database.
	Explorer = core.Explorer
	// Session is one multi-step exploration.
	Session = core.Session
	// StepResult is a step's display: maps, utilities, recommendations.
	StepResult = core.StepResult
	// StepProfile is a step's EXPLAIN record: phase timings, scan and
	// prune counts, cache outcome, and the trace ID the step ran under.
	StepProfile = core.StepProfile
	// EngineProfile is the engine half of a StepProfile.
	EngineProfile = engine.Profile
	// Recommendation is a ranked next-step operation.
	Recommendation = core.Recommendation
	// Mode selects User-Driven, Recommendation-Powered or Fully-Automated.
	Mode = core.Mode
	// Description is a conjunctive attribute-value selection.
	Description = query.Description
	// Selector is one attribute-value pair of a Description.
	Selector = query.Selector
	// Operation is a filter/generalize/change exploration operation.
	Operation = query.Operation
	// RatingMap is a grouped, aggregated view of a rating group.
	RatingMap = ratingmap.RatingMap
	// GenConfig parameterizes the synthetic dataset generators.
	GenConfig = gen.Config
	// IrregularGroup is Scenario I ground truth (planted all-ones group).
	IrregularGroup = gen.IrregularGroup
	// Insight is Scenario II ground truth (planted extreme subgroup).
	Insight = gen.Insight
	// EngineConfig tunes the phase/pruning machinery.
	EngineConfig = engine.Config
	// UtilityConfig tunes interestingness scoring.
	UtilityConfig = ratingmap.UtilityConfig
	// Registry is a metrics registry (counters, gauges, histograms) with
	// a Prometheus text encoder; attach one to an Explorer via
	// Explorer.Instrument to collect engine telemetry.
	Registry = obs.Registry
	// SpanSink receives finished span trees; install one on a context
	// with WithSpanSink so Session.StepCtx records a per-step span tree.
	SpanSink = obs.SpanSink
)

// Exploration modes (§3.3).
const (
	UserDriven            = core.UserDriven
	RecommendationPowered = core.RecommendationPowered
	FullyAutomated        = core.FullyAutomated
)

// Table sides for selectors.
const (
	ReviewerSide = query.ReviewerSide
	ItemSide     = query.ItemSide
)

// Pruning strategies for EngineConfig.
const (
	PruneNone = engine.PruneNone
	PruneCI   = engine.PruneCI
	PruneMAB  = engine.PruneMAB
	PruneBoth = engine.PruneBoth
)

// DefaultConfig returns the paper's Table 3 defaults: k=3 rating maps, o=3
// recommendations, pruning-diversity factor l=3, 10 phases, both pruning
// schemes.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewExplorer builds an SDE engine over a frozen database.
func NewExplorer(db *DB, cfg Config) (*Explorer, error) { return core.NewExplorer(db, cfg) }

// NewSession starts an exploration session in the given mode from the
// given selection.
func NewSession(ex *Explorer, mode Mode, start Description) (*Session, error) {
	return core.NewSession(ex, mode, start)
}

// Everything is the selection of the entire database.
func Everything() Description { return query.Description{} }

// Where builds a selection from attribute-value pairs.
func Where(selectors ...Selector) (Description, error) { return query.NewDescription(selectors...) }

// Parse parses an advanced-screen SQL predicate such as
// "reviewers.age_group = 'young' AND items.city = 'NYC'" against the
// explorer's schemas.
func Parse(ex *Explorer, predicate string) (Description, error) {
	return ex.ParseDescription(predicate)
}

// EMD is the default Earth Mover's Distance between rating maps.
var EMD = diversity.EMD

// NewRegistry returns an empty metrics registry for Explorer.Instrument.
func NewRegistry() *Registry { return obs.NewRegistry() }

// WithSpanSink installs a span sink on a context; exploration calls made
// with that context (Session.StepCtx, Explorer.RMSetCtx) then emit span
// trees to it. obs.NewRingSink(n) is a ready-made bounded sink.
func WithSpanSink(ctx context.Context, sink SpanSink) context.Context {
	return obs.WithSink(ctx, sink)
}

// GenerateMovielens builds the MovieLens-100K-shaped synthetic database
// (Table 2 row 1). Scale 1.0 is paper size; smaller scales shrink it.
func GenerateMovielens(cfg GenConfig) (*DB, error) { return gen.Movielens(cfg) }

// GenerateYelp builds the Yelp-restaurants-shaped synthetic database
// (Table 2 row 2) with 4 rating dimensions.
func GenerateYelp(cfg GenConfig) (*DB, error) { return gen.Yelp(cfg) }

// GenerateHotels builds the Hotel-Reviews-shaped synthetic database
// (Table 2 row 3).
func GenerateHotels(cfg GenConfig) (*DB, error) { return gen.Hotels(cfg) }

// PlantIrregularGroups mutates a database to contain the Scenario I
// workload: perSide irregular groups on each of the reviewer and item
// sides, each covering at least minEntities entities, returning the ground
// truth.
func PlantIrregularGroups(db *DB, seed int64, perSide, minEntities int) ([]IrregularGroup, error) {
	return gen.PlantIrregularGroups(db, seed, perSide, minEntities)
}

// MovielensInsights and YelpInsights return the Scenario II planted-insight
// sets; pass gen.InsightBiases(...) through GenConfig.ForcedBiases when
// generating to plant them.
func MovielensInsights() []Insight { return gen.MovielensInsights() }

// YelpInsights returns the Yelp Scenario II insight set.
func YelpInsights() []Insight { return gen.YelpInsights() }

// InsightBiases converts insights into the forced generation biases that
// plant them.
func InsightBiases(insights []Insight) []gen.ForcedBias { return gen.InsightBiases(insights) }

// SaveDir / LoadDir persist a database as CSV files in a directory.
func SaveDir(db *DB, dir string) error { return dataset.SaveDir(db, dir) }

// LoadDir loads a database saved by SaveDir. kinds declares multi-valued
// attributes (attribute name → dataset.MultiValued).
func LoadDir(dir, name string, kinds map[string]dataset.Kind) (*DB, error) {
	return dataset.LoadDir(dir, name, kinds)
}
