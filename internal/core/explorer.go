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
	// Ins carries the explorer's telemetry instruments; nil (the
	// default) disables them. Install via Instrument.
	Ins *Instruments
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
	qe.EnableGroupCache(groupCacheRecords)
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

// InvalidateEngineCache drops every cached accumulator, e.g. after the
// underlying database is swapped. Safe to call with a nil Gen.Cache.
func (ex *Explorer) InvalidateEngineCache() {
	ex.Gen.InvalidateCache()
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

// RMSet solves Problem 1 for a description: generate the top k×l maps by DW
// utility (pruned per config), then select the k most diverse with GMM.
// The seen set is not mutated; callers commit displayed maps explicitly.
//
// RMSet is an XCtx compatibility shim: a context-free wrapper F that
// delegates to FCtx with context.Background(), keeping the pre-context
// API alive. Shims like this (RMSet, Session.Step,
// engine.Generator.TopMaps) are the only non-main, non-test call sites
// where the ctxflow analyzer permits minting a root context.
func (ex *Explorer) RMSet(desc query.Description, seen *ratingmap.SeenSet) (*StepResult, error) {
	return ex.RMSetCtx(context.Background(), desc, seen)
}

// RMSetCtx is RMSet with span propagation: under a context carrying an
// obs sink, the step's generation work is recorded as a "core.rmset"
// span whose children cover materialization and the engine's phases.
func (ex *Explorer) RMSetCtx(ctx context.Context, desc query.Description, seen *ratingmap.SeenSet) (*StepResult, error) {
	if err := ex.Query.Validate(desc); err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "core.rmset")
	span.SetAttr("selection", desc.String())
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
	sel, utils := ex.selectDiverse(genRes)
	out := &StepResult{
		Desc:             group.Desc,
		GroupSize:        group.Len(),
		Maps:             sel,
		Utilities:        utils,
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
	out.NumMatched.Reviewers = group.Reviewers.Count()
	out.NumMatched.Items = group.Items.Count()
	return out, nil
}

// selectDiverse is the second half of RM-Set selection, shared by a step
// and by every candidate operation it scores: GMM picks the k diverse
// maps out of the generator's k′, and each keeps the utility the
// generator ranked it by.
func (ex *Explorer) selectDiverse(genRes *engine.Result) ([]*ratingmap.RatingMap, []float64) {
	sel := diversity.SelectDiverse(genRes.Maps, ex.Cfg.K, ex.Cfg.Distance)
	// sel keeps the generator's order, so one walk pairs the utilities up.
	utils := make([]float64, 0, len(sel))
	for i, rm := range genRes.Maps {
		if len(utils) < len(sel) && rm == sel[len(utils)] {
			utils = append(utils, genRes.Utilities[i])
		}
	}
	return sel, utils
}

// OperationUtility evaluates Equation 2 for a candidate operation: the sum
// of DW utilities of the k rating maps its target group would display. It
// materializes the target from the entity tables — the reference the
// Recommendation Builder's derived groups (recPass) are tested against.
func (ex *Explorer) OperationUtility(op query.Operation, seen *ratingmap.SeenSet) (float64, error) {
	group, err := ex.Query.Materialize(op.Target)
	if err != nil {
		return 0, err
	}
	u, _, err := ex.groupUtility(op.Target, group.Records, ex.Gen.Candidates(ex.Query, op.Target), seen, nil)
	return u, err
}

// groupUtility is Equation 2 over a rating group given as its description,
// ascending records and candidate rating maps. To keep recommendation
// building interactive, the records may be subsampled per Cfg.RecSampleSize.
//
// keep, when non-nil, is the engine's gate (engine.TopMapsIf): it sees the
// group's k′ = K×L top utilities in rank order before any of the maps
// exists, and a group it turns down is reported bounded, its utility not
// computed — no map snapshot, no GMM.
func (ex *Explorer) groupUtility(desc query.Description, records []int32, cands []ratingmap.Key, seen *ratingmap.SeenSet,
	keep func(ranked []float64) bool) (u float64, bounded bool, err error) {
	if len(records) == 0 {
		return 0, false, nil
	}
	if n := ex.Cfg.RecSampleSize; n > 0 && len(records) > n {
		records = sampleRecords(records, n)
	}
	group := &query.RatingGroup{Desc: desc, Records: records}
	genRes, err := ex.Gen.TopMapsIf(group, cands, seen, ex.Cfg.K*ex.Cfg.L, ex.Cfg.Engine, keep)
	if err != nil {
		return 0, false, err
	}
	if genRes.Gated {
		return 0, true, nil
	}
	_, utils := ex.selectDiverse(genRes)
	sum := 0.0
	for _, u := range utils {
		sum += u
	}
	return sum, false, nil
}

// sampleRecords picks n records evenly spaced across the (sorted) record
// list — deterministic and order-preserving, which keeps repeated
// evaluations of the same operation stable.
func sampleRecords(records []int32, n int) []int32 {
	out := make([]int32, 0, n)
	step := float64(len(records)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, records[int(float64(i)*step)])
	}
	return out
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

// ExplainMap reports why a rating map scores: its four criterion values and
// the winning criterion — the attribution behind the max-aggregated
// utility, shown by the CLI's "why" command.
func (ex *Explorer) ExplainMap(rm *ratingmap.RatingMap, seen *ratingmap.SeenSet) (scores ratingmap.Scores, winner ratingmap.Criterion) {
	scores = ratingmap.ComputeScoresOpt(rm, seen, 1, ex.Cfg.Engine.Utility.Peculiarity)
	winner, _ = scores.Best()
	return scores, winner
}

func (ex *Explorer) String() string {
	return fmt.Sprintf("Explorer(%s: %d reviewers, %d items, %d ratings)",
		ex.DB.Name, ex.DB.Reviewers.Len(), ex.DB.Items.Len(), ex.DB.Ratings.Len())
}
