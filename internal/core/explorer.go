package core

import (
	"context"
	"fmt"
	"time"

	"subdex/internal/dataset"
	"subdex/internal/diversity"
	"subdex/internal/engine"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Explorer is the SDE Engine of Figure 4: it turns a selection query into a
// rating group, asks the RM-Set Generator for the step's diverse high-
// utility rating maps, and drives the Recommendation Builder.
type Explorer struct {
	DB    *dataset.DB
	Query *query.Engine
	Gen   *engine.Generator
	Cfg   Config
	// Ins carries the explorer's telemetry instruments; the zero value
	// records nothing. Install via Instrument.
	Ins Instruments
}

// NewExplorer builds an explorer over a frozen database. Databases with a
// single rating dimension get dimension weighting disabled: Equation 1
// exists to balance dimensions against each other, and with one dimension
// it can only distort the ranking (the weight factor is identical for all
// candidates).
func NewExplorer(db *dataset.DB, cfg Config) (*Explorer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	qe, err := query.NewEngine(db)
	if err != nil {
		return nil, err
	}
	if len(db.Ratings.Dimensions) == 1 {
		cfg.Engine.Utility.DisableDimensionWeights = true
	}
	qe.EnableGroupCache(groupCacheBytes)
	gen := engine.NewGenerator(db)
	gen.Cache = engine.NewTopMapsCache(engineCacheRecords)
	gen.Scanner = cfg.Scanner
	ex := &Explorer{DB: db, Query: qe, Gen: gen, Cfg: cfg}
	// Arm the distributed scanner's mixed-version guard: every worker
	// RPC carries this fingerprint and workers refuse ranges scanned
	// under a different engine configuration or dataset.
	if b, ok := cfg.Scanner.(interface{ BindFingerprint(string) }); ok {
		b.BindFingerprint(ex.Fingerprint())
	}
	return ex, nil
}

// EngineCacheStats snapshots the RM-Generator's cross-step accumulator
// cache (zero stats when Gen.Cache is nil). All sessions of this
// explorer share the cache, so the counters aggregate the whole workload.
func (ex *Explorer) EngineCacheStats() engine.CacheStats {
	return ex.Gen.Cache.Stats()
}

// StepResult is what one exploration step displays: the group, its k
// diverse high-utility rating maps, and (in guided modes) the top-o
// next-step recommendations.
type StepResult struct {
	Desc       query.Description
	GroupSize  int
	NumMatched struct{ Reviewers, Items int }

	// Maps are the k selected rating maps, in descending DW-utility order;
	// Utilities aligns with Maps.
	Maps      []*ratingmap.RatingMap
	Utilities []float64
	// Scores aligns with Maps: the four criterion values the engine ranked
	// each map by, against the seen set before the step. Scores[i].Best()
	// is the criterion a map is explained by.
	Scores []ratingmap.Scores
	// Digests aligns with Maps: each map's ratingmap.Digest, rendered once,
	// when a session commits the step (nil on an uncommitted result).
	Digests []string
	// SetDiversity is the min-pairwise EMD of the selected set, and
	// AvgDiversity the mean pairwise EMD (the Table 5 metric).
	SetDiversity float64
	AvgDiversity float64

	Recommendations []Recommendation

	// Observability: pruning counters and timings.
	PrunedCI, PrunedMAB int
	Considered          int
	// Degraded reports anytime semantics: a step deadline (or request
	// cancellation) cut the engine's scan short after a phase boundary, so
	// Maps/Utilities rank candidates over the RecordsProcessed-record
	// prefix of the group, and recommendations may have been skipped.
	Degraded bool
	// RecordsProcessed counts the group records the engine folded in
	// before finalization (== GroupSize for a complete scan).
	RecordsProcessed int
	GenDuration      time.Duration
	RecDuration      time.Duration
	// RecOpDurations holds the sequential evaluation cost of each candidate
	// operation, letting benches derive parallel schedules for any core
	// count deterministically.
	RecOpDurations []time.Duration
	// TraceID is the correlation ID the step ran under (empty without one).
	TraceID string
	// Profile is the step's EXPLAIN record (always populated by StepCtx).
	Profile *StepProfile
}

// TotalUtility is Σ û over the displayed maps — the step's contribution to
// the Table 5 utility column, and Equation 2 when the step results from an
// operation.
func (s *StepResult) TotalUtility() float64 {
	sum := 0.0
	for _, u := range s.Utilities {
		sum += u
	}
	return sum
}

// rmSet solves Problem 1 for a description: generate the top k×l maps by
// DW utility (pruned per config), then select the k most diverse with GMM.
// The seen set is not mutated; Session.StepCtx, its one caller, commits the
// displayed maps. Under a context carrying an obs sink, the generation work
// is recorded as a "core.rmset" span whose children cover materialization
// and the engine's phases.
func (ex *Explorer) rmSet(ctx context.Context, desc query.Description, seen *ratingmap.SeenSet) (*StepResult, error) {
	if err := ex.Query.Validate(desc); err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "core.rmset")
	if span != nil { // rendered only for a span that records it
		span.SetAttr("selection", desc.String())
	}
	defer span.End()
	_, mspan := obs.StartSpan(ctx, "query.materialize")
	group, hit, err := ex.Query.MaterializeCached(desc)
	if err != nil {
		mspan.End()
		return nil, err
	}
	mspan.SetAttr("records", group.Len())
	// Found in the group cache or built: a cold materialization and a
	// hit are otherwise the same span with the same record count.
	if hit {
		mspan.SetAttr("cache", "hit")
	} else {
		mspan.SetAttr("cache", "miss")
	}
	mspan.End()
	res, err := ex.rmSetForGroup(ctx, group, seen)
	if err != nil {
		return nil, err
	}
	res.GenDuration = time.Since(start)
	span.SetAttr("maps", len(res.Maps))
	return res, nil
}

func (ex *Explorer) rmSetForGroup(ctx context.Context, group *query.RatingGroup, seen *ratingmap.SeenSet) (*StepResult, error) {
	cfg := ex.Cfg
	cands := ex.Gen.Candidates(ex.Query, group.Desc)
	kPrime := cfg.K * cfg.L
	if cfg.DiversityOnly {
		kPrime = len(cands)
		if kPrime == 0 {
			kPrime = 1
		}
	}
	genRes, err := ex.Gen.TopMapsCtx(ctx, group, cands, seen, kPrime, cfg.Engine)
	if err != nil {
		return nil, err
	}
	sel, picked := ex.selectDiverse(genRes)
	out := &StepResult{
		Desc:             group.Desc,
		GroupSize:        group.Len(),
		Maps:             sel,
		Utilities:        make([]float64, len(picked)),
		Scores:           make([]ratingmap.Scores, len(picked)),
		PrunedCI:         genRes.PrunedCI,
		PrunedMAB:        genRes.PrunedMAB,
		Considered:       genRes.Considered,
		Degraded:         genRes.Degraded,
		RecordsProcessed: genRes.RecordsProcessed,
		Profile: &StepProfile{
			GroupSize:        group.Len(),
			RecordsProcessed: genRes.RecordsProcessed,
			Engine:           genRes.Profile,
		},
		// Diversity is reported with pure EMD — a property of the data
		// shown — even when selection used an augmented distance.
		SetDiversity: diversity.SetDiversity(sel, diversity.EMD),
		AvgDiversity: diversity.AvgPairwiseDiversity(sel, diversity.EMD),
	}
	for j, i := range picked {
		out.Utilities[j], out.Scores[j] = genRes.Utilities[i], genRes.Scores[i]
	}
	out.NumMatched.Reviewers = group.Reviewers.Count()
	out.NumMatched.Items = group.Items.Count()
	return out, nil
}

// selectDiverse is the second half of RM-Set selection, shared by a step
// and by every candidate operation it scores: GMM picks the k diverse
// maps out of the generator's k′, and picked[j] is sel[j]'s position in
// genRes, so each keeps the utility and scores the generator ranked it by.
func (ex *Explorer) selectDiverse(genRes *engine.Result) (sel []*ratingmap.RatingMap, picked []int) {
	sel = diversity.SelectDiverse(genRes.Maps, ex.Cfg.K, ex.Cfg.Distance)
	// sel keeps the generator's order, so one walk finds the positions.
	picked = make([]int, 0, len(sel))
	for i, rm := range genRes.Maps {
		if len(picked) < len(sel) && rm == sel[len(picked)] {
			picked = append(picked, i)
		}
	}
	return sel, picked
}

// ParseDescription exposes the advanced-screen SQL predicate parser bound
// to this explorer's schemas.
func (ex *Explorer) ParseDescription(input string) (query.Description, error) {
	return query.ParseDescription(input, ex.Query)
}

// DictFor returns the display dictionary for a rating map's grouping
// attribute, for rendering.
func (ex *Explorer) DictFor(rm *ratingmap.RatingMap) ratingmap.Dict {
	var t *dataset.EntityTable
	if rm.Side == query.ReviewerSide {
		t = ex.DB.Reviewers
	} else {
		t = ex.DB.Items
	}
	d := t.DictByName(rm.Attr)
	if d == nil {
		return nil
	}
	return d
}

// RenderMap formats a rating map with value labels resolved.
func (ex *Explorer) RenderMap(rm *ratingmap.RatingMap) string {
	if rm == nil {
		return "<nil rating map>"
	}
	return rm.Render(ex.DictFor(rm))
}

func (ex *Explorer) String() string {
	return fmt.Sprintf("Explorer(%s: %d reviewers, %d items, %d ratings)",
		ex.DB.Name, ex.DB.Reviewers.Len(), ex.DB.Items.Len(), ex.DB.Ratings.Len())
}
