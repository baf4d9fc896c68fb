// Package engine implements the RM-Generator of SubDEx (§4.2.1): the
// phase-based execution framework of Algorithm 1 with the paper's two
// sharing optimizations (combined aggregates via the shared accumulator,
// parallel execution via the sharded scan — candidates are scored in one
// sequential loop) and its two pruning schemes — the confidence-interval
// pruning of Algorithm 3 built on Hoeffding-Serfling worst-case intervals,
// and the multi-armed-bandit pruning built on the Successive Accepts and
// Rejects strategy. Given a rating group, it returns
// (w.h.p.) the k×l rating maps with the highest dimension-weighted
// utilities.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"subdex/internal/bandit"
	"subdex/internal/dataset"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
	"subdex/internal/stats"
)

// Pruning selects which pruning schemes run at phase boundaries.
type Pruning int

const (
	// PruneNone disables pruning (the No-Pruning baseline of §5.1).
	PruneNone Pruning = iota
	// PruneCI uses only confidence-interval pruning (the CI baseline).
	PruneCI
	// PruneMAB uses only bandit pruning (the MAB baseline).
	PruneMAB
	// PruneBoth runs both schemes, SubDEx's default.
	PruneBoth
)

func (p Pruning) String() string {
	switch p {
	case PruneNone:
		return "none"
	case PruneCI:
		return "ci"
	case PruneMAB:
		return "mab"
	case PruneBoth:
		return "ci+mab"
	default:
		return fmt.Sprintf("Pruning(%d)", int(p))
	}
}

// Delta is the CI confidence parameter of Algorithm 3: the pruning
// intervals hold with probability 1−Delta.
const Delta = 0.05

// Config parameterizes the generator. The zero value is not usable; start
// from DefaultConfig() and change the fields you mean to change.
type Config struct {
	// Phases is n in Algorithm 1; the paper follows SeeDB in using 10.
	Phases int
	// Pruning selects the pruning schemes.
	Pruning Pruning
	// Workers bounds the sharded scan: a record range is folded by up to
	// Workers goroutines (see ShardMinRecords); ≤1 scans sequentially (the
	// No-Parallelism and Naive baselines). Scoring is sequential whatever
	// its value.
	Workers int
	// Utility configures scoring (max-aggregation, normalization, DW).
	Utility ratingmap.UtilityConfig
	// MinPhaseRecords skips phased execution for groups smaller than this:
	// pruning overhead would exceed the scan cost.
	MinPhaseRecords int
	// ShardMinRecords is the per-shard record floor of the parallel scan:
	// a scan is split into at most len(records)/ShardMinRecords shards, so
	// small ranges stay sequential no matter how many Workers are
	// configured. ≤ 0 means the conservative default (2048). Tests set 1
	// to force multi-shard merges on tiny inputs through the public
	// TopMaps path.
	ShardMinRecords int
	// PhaseHook, when non-nil, runs once before every executed stride of
	// the phase loop — a group scanned in one pass has the single stride 0 —
	// and once, with phase 0, before a cache hit is served, with the TopMaps
	// context and the phase index. It is a test-only fault-injection seam:
	// tests use it to force slow or cancelled phases deterministically
	// instead of sleeping on wall-clock data sizes. Production configs
	// leave it nil.
	PhaseHook func(ctx context.Context, phase int)
}

// DefaultConfig returns the paper's defaults (n=10 phases, both pruning
// schemes, utility per §3.2.3).
func DefaultConfig() Config {
	return Config{
		Phases:          10,
		Pruning:         PruneBoth,
		Workers:         1,
		Utility:         ratingmap.DefaultUtilityConfig(),
		MinPhaseRecords: 5000,
		ShardMinRecords: defaultShardMinRecords,
	}
}

// Result carries the generator's output: the top maps ranked by descending
// DW utility, aligned utilities and criterion scores, and observability
// counters. A Result handed to TopMapsIfCtx again is overwritten by that
// call — its slices, its maps (by position) and its Profile reused where
// their capacity fits — so nothing read out of it may be kept past the next
// call: TopMapsCtx gives every caller a Result of its own.
type Result struct {
	Maps      []*ratingmap.RatingMap
	Utilities []float64
	// Scores aligns with Maps: the criterion values each map was ranked by
	// — ScoresAt against the seen set the call was given — so a map is
	// explained by the numbers that chose it, not scored a second time.
	Scores []ratingmap.Scores
	// PrunedCI and PrunedMAB count candidates dropped by each scheme.
	PrunedCI  int
	PrunedMAB int
	// Considered is the initial candidate count.
	Considered int
	// Degraded reports anytime semantics: the scan (or the final scoring
	// pass) was cut short by context cancellation after at least one phase
	// boundary, so Maps ranks candidates over the RecordsProcessed-record
	// prefix only. Every phase boundary is a consistent prefix of the
	// group's records, so a degraded result is still a valid
	// Hoeffding-Serfling estimate — just a wider-interval one.
	Degraded bool
	// RecordsProcessed counts the group records folded into the
	// accumulator before finalization (== len(group.Records) for a
	// complete scan).
	RecordsProcessed int
	// Gated reports that the caller's keep function (TopMapsIfCtx) turned the
	// ranking down: Utilities holds the top utilities it was shown, in rank
	// order, and no map was materialized.
	Gated bool
	// Profile is the per-call EXPLAIN profile (always populated by
	// TopMapsCtx, even for degraded or cache-hit runs).
	Profile *Profile
}

// Generator produces top-utility rating maps for rating groups of one
// database.
type Generator struct {
	DB      *dataset.DB
	Builder ratingmap.Builder
	// Metrics receives hot-path telemetry (candidate, pruning,
	// finalization and cache counters, latency histograms). The zero
	// value records nothing.
	Metrics Metrics
	// Cache, when non-nil, memoizes completed unpruned accumulators
	// across TopMaps calls (see TopMapsCache). Safe for concurrent use;
	// all sessions of one explorer share it.
	Cache *TopMapsCache
	// Scanner, when non-nil, replaces the local sharded scan with a
	// distributed one (see RangeScanner and internal/cluster): every
	// record range TopMaps would fold locally is partitioned across
	// worker processes and the partial accumulators merged back in
	// partition order — bit-identical by Merge associativity. A lost
	// partition degrades the call to the same anytime semantics a
	// deadline does. Scheduling-only, like Workers: deliberately
	// excluded from the engine-config fingerprint.
	Scanner RangeScanner
}

// NewGenerator wraps a frozen database.
func NewGenerator(db *dataset.DB) *Generator {
	return &Generator{DB: db, Builder: ratingmap.Builder{DB: db}}
}

// Candidates enumerates all possible rating maps for a group description:
// every unbound grouping attribute with at least two values × every rating
// dimension (line 1 of Algorithm 1). An attribute with fewer values would
// group the records into one bar at most, so query.Engine.GroupingCandidates
// skips it.
func (g *Generator) Candidates(qe *query.Engine, desc query.Description) []ratingmap.Key {
	groupings := qe.GroupingCandidates(desc)
	dims := len(g.DB.Ratings.Dimensions)
	keys := make([]ratingmap.Key, 0, len(groupings)*dims)
	for _, gc := range groupings {
		for d := 0; d < dims; d++ {
			keys = append(keys, ratingmap.Key{Side: gc.Side, Attr: gc.Attr, Dim: d})
		}
	}
	return keys
}

// TopMapsCtx runs Algorithm 1: it returns w.h.p. the kPrime = k×l
// candidates with the highest DW utilities over the group's records,
// ranked by exact utility, pruning low-utility candidates at phase
// boundaries, with span propagation and cooperative cancellation. It is
// Algorithm 1 in four stages, each its own function:
//
//  1. cache lookup — a completed unpruned accumulator for this exact
//     (group, candidate set, utility config) skips stages 2 and 3, the call
//     a reader of its entry until it returns; a group under the cache's
//     admission floor (cacheFloorRecords) is not looked up. Every other
//     scan runs in a pooled accumulator (accumulators), which the cache
//     keeps if it admits the scan and the pool gets back if not;
//  2. the phase loop (scan) — fold the group one record fraction ("stride")
//     at a time through scanRange, the engine's only scan site;
//  3. between strides, pruning (prune) — estimate the survivors on the
//     prefix folded so far, drop what the confidence intervals and the
//     bandit rule out;
//  4. finalize — score the survivors on everything accumulated, rank, and
//     materialize the top kPrime.
//
// A group not worth pruning (PruneNone, fewer than MinPhaseRecords
// records, no more candidates than kPrime) is the same loop with one
// stride, and once the survivors fit in kPrime the remaining strides only
// scan. Under a context carrying an obs sink the call emits an
// "engine.topmaps" span with one "engine.phase" child per executed stride,
// and — when Generator.Metrics is installed — records the hot-path
// counters and histograms. Both instruments are no-ops when absent.
//
// The context is consulted before every stride and between candidates of
// the estimate and finalize scoring loop. Cancellation before the first
// stride completes returns ctx.Err(). Cancellation after that degrades
// instead of failing: the scan stops at the last completed stride boundary
// and the survivors are finalized over the records processed so far —
// Algorithm 1 is an anytime algorithm, every stride boundary is a
// consistent record prefix — yielding a Result with Degraded set and
// RecordsProcessed reporting the prefix length.
func (g *Generator) TopMapsCtx(ctx context.Context, group *query.RatingGroup, candidates []ratingmap.Key,
	seen *ratingmap.SeenSet, kPrime int, cfg Config) (*Result, error) {
	res := new(Result)
	if err := g.TopMapsIfCtx(ctx, res, group, candidates, seen, kPrime, cfg, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// TopMapsIfCtx is TopMapsCtx for a caller that may not want the maps once
// it has seen how they rank — the Recommendation Builder, which sums a
// candidate operation's maps into one number and keeps the operation only
// if that number can still reach its top-o. keep is handed the top kPrime
// utilities in rank order after ranking and before any map is
// materialized; when it returns false the call stops there, Result.Gated
// set, Utilities what keep saw and Maps empty. A nil keep keeps
// everything: TopMapsCtx. It is the one implementation behind TopMaps and
// TopMapsCtx.
//
// The call writes its result over res, whatever an earlier call left there
// (see Result), so a caller making many calls — a recommendation pass's
// ≈ 300 — allocates one Result, one Profile and k′ maps for all of them.
// After an error res holds nothing to read.
func (g *Generator) TopMapsIfCtx(ctx context.Context, res *Result, group *query.RatingGroup, candidates []ratingmap.Key,
	seen *ratingmap.SeenSet, kPrime int, cfg Config, keep func(ranked []float64) bool) error {
	if kPrime <= 0 {
		return fmt.Errorf("engine: kPrime must be positive, got %d", kPrime)
	}
	if cfg.Phases <= 0 {
		cfg.Phases = 1
	}
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "engine.topmaps")
	span.SetAttr("candidates", len(candidates))
	span.SetAttr("records", len(group.Records))
	span.SetAttr("k_prime", kPrime)
	span.SetAttr("pruning", cfg.Pruning.String())
	g.Metrics.Candidates.Add(int64(len(candidates)))
	n := len(group.Records)
	res.reset(Profile{Cache: "off", Workers: max(cfg.Workers, 1), GroupRecords: n, Considered: len(candidates)})
	prof := res.Profile
	defer g.endTopMaps(span, start, res)
	if len(candidates) == 0 {
		return nil
	}

	// entry is the cache entry this call reads: the one it hit, or the one
	// its scan is admitted as. The cached accumulator is shared and
	// read-only; finalize never mutates it.
	var key string
	var entry *topMapsCacheEntry
	switch {
	case g.Cache == nil:
	case n < cacheFloorRecords:
		g.Cache.bypass()
		g.Metrics.CacheBypass.Inc()
		prof.Cache = "bypass"
	default:
		key = cacheKey(group, candidates, cfg.Utility)
		if entry = g.Cache.get(key); entry != nil {
			g.Metrics.CacheHits.Inc()
			prof.Cache = "hit"
		} else {
			g.Metrics.CacheMisses.Inc()
			prof.Cache = "miss"
		}
	}
	// Every scan fills a pooled accumulator. When the call returns, an
	// entry is released — the last reader of an evicted one recycles it —
	// and an accumulator the cache did not admit goes back to the pool:
	// nothing in res aliases it (SnapshotInto copies).
	var acc *ratingmap.Accumulator
	if entry != nil {
		acc = entry.acc
	} else {
		acc = accumulators.Get().(*ratingmap.Accumulator)
	}
	defer func() {
		if entry != nil {
			g.Cache.release(entry)
		} else {
			accumulators.Put(acc)
		}
	}()
	if entry != nil {
		if cfg.PhaseHook != nil {
			cfg.PhaseHook(ctx, 0)
		}
		if err := ctx.Err(); err != nil {
			return err // nothing served yet: fail, don't degrade
		}
		res.RecordsProcessed = n
	} else {
		g.Builder.Recycle(acc, group.Desc, candidates)
		if err := g.scan(ctx, acc, group, seen, kPrime, cfg, res); err != nil {
			return err
		}
		entry = g.maybeCache(key, acc, res, n)
	}

	// Finalize over whatever prefix was accumulated. A degraded run
	// finalizes under a detached context: the final scoring pass is cheap
	// (it reads accumulated statistics, not records) and must complete for
	// the anytime result to be usable.
	fctx := ctx
	if res.Degraded {
		fctx = context.WithoutCancel(ctx) //subdex:ctxflow a degraded run's finalize reads accumulated statistics and must complete
	}
	fstart := time.Now()
	g.finalize(fctx, acc, seen, kPrime, cfg, keep, res)
	prof.FinalizeMS = msSince(fstart)
	return nil
}

// reset readies r for a call whose profile starts as start: every field
// zero but Considered, the slices empty with their arrays kept (Maps keeps
// its maps past its length for finalize to write over), and the Profile
// r's own if it has one, its Phases and Cluster arrays kept too.
func (r *Result) reset(start Profile) {
	prof := r.Profile
	if prof == nil {
		prof = new(Profile)
	}
	start.Phases, start.Cluster = prof.Phases[:0], prof.Cluster[:0]
	*prof = start
	*r = Result{Maps: r.Maps[:0], Utilities: r.Utilities[:0], Scores: r.Scores[:0], Considered: start.Considered, Profile: prof}
}

// accumulators recycles the accumulator of every scan that is not a cache
// hit: one per call in flight, and one per evicted cache entry whose last
// reader is done (TopMapsCache.release). A scan the cache admits leaves the
// pool until its entry is evicted; every other one — pruned, degraded,
// failed, under the admission floor, or a key another call admitted first
// — comes back when its call returns. What is reused is capacity
// (ratingmap.Builder.Recycle, which grows a pooled accumulator to its
// schema's whole candidate set), not content: a recommendation pass runs
// through some two dozen candidate-key sets over one schema, so nearly
// every call finds arrays that already fit.
var accumulators = sync.Pool{New: func() any { return new(ratingmap.Accumulator) }}

// endTopMaps closes a TopMaps call — failed ones included — by copying the
// result's counters into the metrics, the profile and the span.
func (g *Generator) endTopMaps(span *obs.Span, start time.Time, res *Result) {
	prof := res.Profile
	g.Metrics.PrunedCI.Add(int64(res.PrunedCI))
	g.Metrics.PrunedMAB.Add(int64(res.PrunedMAB))
	g.Metrics.Finalized.Add(int64(len(res.Maps)))
	g.Metrics.TopMapsLatency.ObserveDuration(time.Since(start))
	if res.Degraded {
		g.Metrics.Degraded.Inc()
		span.SetAttr("degraded", true)
	}
	prof.PrunedCI, prof.PrunedMAB = res.PrunedCI, res.PrunedMAB
	prof.TotalMS = msSince(start)
	if prof.Cache != "off" {
		span.SetAttr("cache", prof.Cache)
	}
	span.SetAttr("phased", prof.Phased)
	span.SetAttr("pruned_ci", res.PrunedCI)
	span.SetAttr("pruned_mab", res.PrunedMAB)
	span.SetAttr("maps", len(res.Maps))
	span.End()
}

// degrade switches the call to anytime semantics: the result will rank the
// candidates over a record prefix only, and reason says what cut it short.
func (r *Result) degrade(reason string) {
	r.Degraded = true
	r.Profile.DegradedReason = reason
}

// scan is the phase loop of Algorithm 1 and the only caller of scanRange:
// every record of the group that reaches acc is folded here, one stride at
// a time, so the rules for a deadline and for a lost partition are written
// once. A lost partition leaves a consistent prefix shorter than the stride
// boundary and degrades exactly as a deadline at that point would; with no
// prefix at all (nothing folded yet) either one is an error.
func (g *Generator) scan(ctx context.Context, acc *ratingmap.Accumulator, group *query.RatingGroup,
	seen *ratingmap.SeenSet, kPrime int, cfg Config, res *Result) error {
	prof := res.Profile
	n := len(group.Records)
	phases := 1
	var pr *pruner
	if cfg.Pruning != PruneNone && cfg.Phases > 1 && n >= cfg.MinPhaseRecords && len(acc.Keys()) > kPrime {
		var err error
		if pr, err = newPruner(acc.Keys(), kPrime, cfg.Pruning); err != nil {
			return err
		}
		phases = cfg.Phases
	}
	prof.Phased = pr != nil
	prof.Phases = slices.Grow(prof.Phases, phases)

	processed := 0
	for phase := 0; phase < phases && !res.Degraded; phase++ {
		lo, hi := phase*n/phases, (phase+1)*n/phases
		if lo == hi && phases > 1 {
			continue // more phases than records; an empty group still takes its one stride
		}
		if cfg.PhaseHook != nil {
			cfg.PhaseHook(ctx, phase)
		}
		if err := ctx.Err(); err != nil {
			if processed == 0 {
				return err
			}
			res.degrade("deadline_at_phase_boundary")
			break
		}
		st := beginStride(ctx, phase, res)
		folded, lost, err := g.scanRange(ctx, acc, group, lo, hi, cfg, prof)
		processed += folded
		switch {
		case err != nil:
		case lost && processed == 0:
			err = errors.New("engine: distributed scan lost every partition")
		case lost:
			res.degrade("partition_lost")
		case pr.active() && phase < phases-1: // nothing to prune after the last fraction
			pr.prune(ctx, acc, seen, cfg, phase, processed, n, res)
		}
		st.end(g.Metrics.PhaseLatency, res, folded, len(acc.Keys()))
		if err != nil {
			return err
		}
	}
	res.RecordsProcessed, prof.RecordsScanned = processed, processed
	return nil
}

// stride is the bookkeeping of one executed record fraction: its
// "engine.phase" span, its Profile.Phases row and its phase-latency sample.
type stride struct {
	phase   int
	start   time.Time
	span    *obs.Span
	ci, mab int // the result's pruning counters when the stride began
}

func beginStride(ctx context.Context, phase int, res *Result) stride {
	_, span := obs.StartSpan(ctx, "engine.phase")
	span.SetAttr("phase", phase)
	return stride{phase: phase, start: time.Now(), span: span, ci: res.PrunedCI, mab: res.PrunedMAB}
}

func (s stride) end(latency *obs.Histogram, res *Result, records, alive int) {
	row := PhaseProfile{
		Phase:      s.phase,
		DurationMS: msSince(s.start),
		Records:    records,
		Alive:      alive,
		PrunedCI:   res.PrunedCI - s.ci,
		PrunedMAB:  res.PrunedMAB - s.mab,
	}
	latency.ObserveDuration(time.Since(s.start))
	s.span.SetAttr("alive", row.Alive)
	s.span.SetAttr("pruned_ci", row.PrunedCI)
	s.span.SetAttr("pruned_mab", row.PrunedMAB)
	s.span.End()
	res.Profile.Phases = append(res.Profile.Phases, row)
}

// pruner is the pruning state carried from stride to stride: which
// candidates are still accumulated, the bandit's arms — the same candidates
// — and the buffers every stride's estimate and CI pass work in. It belongs
// to one call (the Generator is shared across sessions), its buffers sized
// by the first stride and reused by the rest. A nil *pruner never prunes.
type pruner struct {
	// alive lists the candidates still accumulated by ascending candidate
	// index. Remove keeps the accumulator's keys in candidate order too, so
	// the survivor at accumulator position p is candidate alive[p]; the
	// SAR's live arms are alive too, and its means follow the same order.
	alive  []int
	sar    *bandit.SAR // nil without PruneMAB / PruneBoth
	ci     bool        // PruneCI / PruneBoth
	kPrime int

	// By accumulator position, as estimate last wrote them: each survivor's
	// criterion estimates, dimension weight and dimension-weighted mean.
	scores  []ratingmap.Scores
	weights []float64
	means   []float64
	bounds  []bound // ciPrune's intervals
	pruned  []int   // ciPrune's answer
}

// bound is one survivor's dimension-weighted utility interval.
type bound struct {
	idx    int // candidate index
	lo, hi float64
}

func newPruner(candidates []ratingmap.Key, kPrime int, mode Pruning) (*pruner, error) {
	p := &pruner{alive: make([]int, len(candidates)), ci: mode != PruneMAB, kPrime: kPrime}
	for i := range p.alive {
		p.alive[i] = i
	}
	if mode != PruneCI {
		var err error
		if p.sar, err = bandit.NewSAR(p.alive, kPrime); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// drop removes live candidate idx from the survivors and from acc.
func (p *pruner) drop(acc *ratingmap.Accumulator, idx int) {
	pos, _ := slices.BinarySearch(p.alive, idx)
	acc.Remove(acc.Keys()[pos])
	p.alive = slices.Delete(p.alive, pos, pos+1)
}

// active reports whether pruning can still drop a candidate: once the
// survivors all fit in the answer, the remaining strides only scan.
func (p *pruner) active() bool { return p != nil && len(p.alive) > p.kPrime }

// prune runs between strides: it estimates every survivor on the processed
// record prefix, then drops the candidates Algorithm 3's intervals and the
// bandit rule out. A CI drop leaves the bandit's arms with the survivors, so
// every bandit decision is about a live candidate. A deadline inside the
// estimate leaves the stride's records accumulated (a consistent prefix) but
// the estimates incomplete, so pruning is skipped and the call degrades to
// finalizing the prefix.
func (p *pruner) prune(ctx context.Context, acc *ratingmap.Accumulator, seen *ratingmap.SeenSet,
	cfg Config, phase, processed, total int, res *Result) {
	if !p.estimate(ctx, acc, seen, cfg, processed, total) {
		res.degrade("deadline_mid_estimate")
		return
	}
	if p.sar != nil {
		p.sar.SetMeans(p.means)
	}
	if p.ci {
		for _, idx := range p.ciPrune(processed, total) {
			p.drop(acc, idx)
			if p.sar != nil {
				p.sar.Drop(idx)
			}
			res.PrunedCI++
		}
	}
	if p.sar == nil {
		return
	}
	// Successive Accepts and Rejects makes one decision per round and
	// needs (#arms − k') rounds in total; with n phases the per-phase
	// decision budget spreads the remaining decisions over the remaining
	// phases.
	remaining := len(p.alive) - p.kPrime
	phasesLeft := max(cfg.Phases-1-phase, 1)
	budget := (remaining + phasesLeft - 1) / phasesLeft
	for d := 0; d < budget; d++ {
		id, st, ok := p.sar.Step()
		if !ok {
			break
		}
		if st == bandit.Rejected {
			p.drop(acc, id)
			res.PrunedMAB++
		}
	}
}

// estimate writes the survivors' bounded criterion estimates on the
// processed prefix, their dimension weights and their dimension-weighted
// means into p, by accumulator position: the survivor at position i is
// candidate alive[i]. It reports false on cancellation, when the estimates
// are incomplete — partial estimates must never feed pruning decisions.
func (p *pruner) estimate(ctx context.Context, acc *ratingmap.Accumulator, seen *ratingmap.SeenSet,
	cfg Config, processed, total int) bool {
	recordScale := 1.0
	if processed > 0 {
		recordScale = float64(total) / float64(processed)
	}
	n := len(p.alive)
	p.scores = slices.Grow(p.scores[:0], n)[:n]
	p.weights = slices.Grow(p.weights[:0], n)[:n]
	p.means = slices.Grow(p.means[:0], n)[:n]
	if score(ctx, acc, seen, recordScale, cfg.Utility.Peculiarity, p.scores) < n {
		return false
	}
	for i, k := range acc.Keys() {
		w := seen.Weight(k.Dim)
		if cfg.Utility.DisableDimensionWeights {
			w = 1
		}
		p.weights[i], p.means[i] = w, w*p.scores[i].Aggregate(cfg.Utility)
	}
	return true
}

// score is the scoring loop of Algorithm 1, which estimate (at the
// prefix's record scale) and finalize (at scale 1) share: it writes the
// criterion scores of the accumulator's candidates into scores, position
// by position, with one global-peculiarity memo for the pass, and consults
// ctx before each candidate. It returns how many it scored; what a
// cancelled pass scored is the prefix [0, n).
func score(ctx context.Context, acc *ratingmap.Accumulator, seen *ratingmap.SeenSet, recordScale float64,
	m ratingmap.PeculiarityMeasure, scores []ratingmap.Scores) int {
	var memo ratingmap.PecMemo
	for i := range scores {
		if ctx.Err() != nil {
			return i
		}
		scores[i] = acc.ScoresAt(i, seen, recordScale, m, &memo)
	}
	return len(scores)
}

// ciPrune applies Algorithm 3 to estimate's survivors. Each candidate's
// interval is built per criterion from the Hoeffding-Serfling radius at
// (processed, total), then collapsed for the max-of-criteria utility: the
// interval of a maximum of quantities is [max of lower bounds, max of upper
// bounds] — every criterion interval lying entirely below another is
// discarded, exactly the loop of lines 2-9. Both bounds are then scaled by
// the dimension weight (lines 10-11). A candidate is pruned when its upper
// bound falls below the lowest lower bound of the current top-kPrime (lines
// 12-17). Arms already accepted by the bandit are exempt. It returns the
// pruned candidate indexes, in p's buffer.
func (p *pruner) ciPrune(processed, total int) []int {
	p.pruned = p.pruned[:0]
	if len(p.alive) <= p.kPrime {
		return p.pruned
	}
	radius := stats.HoeffdingSerflingRadius(processed, total, Delta)
	// alive ascends and ranking ties break by index, so candidates with
	// equal upper bounds straddling the k' cutoff are pruned the same way on
	// every run.
	bounds := p.bounds[:0]
	for i, idx := range p.alive {
		lo, hi := -1.0, -1.0
		for _, s := range p.scores[i] {
			l := stats.Clamp(s-radius, 0, 1)
			h := stats.Clamp(s+radius, 0, 1)
			if l > lo {
				lo = l
			}
			if h > hi {
				hi = h
			}
		}
		w := p.weights[i]
		bounds = append(bounds, bound{idx: idx, lo: lo * w, hi: hi * w})
	}
	p.bounds = bounds
	slices.SortFunc(bounds, func(a, b bound) int {
		if c := cmp.Compare(b.hi, a.hi); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	lowest := bounds[0].lo
	for _, b := range bounds[1:p.kPrime] {
		if b.lo < lowest {
			lowest = b.lo
		}
	}
	for _, b := range bounds[p.kPrime:] {
		if b.hi < lowest && (p.sar == nil || !p.sar.IsAccepted(b.idx)) {
			p.pruned = append(p.pruned, b.idx)
		}
	}
	return p.pruned
}

// maybeCache admits the accumulator into the cross-step cache when it is
// a complete, unpruned scan of the whole group: no candidate was removed
// mid-scan (every histogram covers every record) and the scan reached the
// final record. key is empty when no cache is installed or the group
// bypasses it. A degraded *finalize* does not block admission — degradation
// there only truncates scoring, the accumulated counts are already complete.
// It returns the entry acc was admitted as, with the caller as its reader,
// or nil when acc is still the caller's.
func (g *Generator) maybeCache(key string, acc *ratingmap.Accumulator, res *Result, n int) *topMapsCacheEntry {
	if key == "" || res.PrunedCI > 0 || res.PrunedMAB > 0 || res.RecordsProcessed != n {
		return nil
	}
	e, evicted, bytes := g.Cache.put(key, acc, n)
	g.Metrics.CacheEvictions.Add(int64(evicted))
	g.Metrics.CacheBytes.Set(float64(bytes))
	return e
}

// finalize scores all remaining candidates on their full accumulated data
// using the allocation-light estimator, ranks them, and materializes only
// the top kPrime as rating maps, each with the scores it was ranked by —
// and those only if keep, when there is one, accepts their utilities
// (TopMapsIfCtx). It writes into res as reset left it: the utilities,
// scores and maps are appended to their slices' arrays, and the j-th map is
// snapshotted over the map an earlier call left at position j, if any.
//
// If the context dies mid-finalize, the candidates the scoring loop did not
// reach are dropped from the ranking and the result is marked Degraded
// (callers that already degraded pass a detached context so the anytime
// result is always fully scored).
func (g *Generator) finalize(ctx context.Context, acc *ratingmap.Accumulator, seen *ratingmap.SeenSet,
	kPrime int, cfg Config, keep func(ranked []float64) bool, res *Result) {
	keys := acc.Keys()
	f := scoreScratches.Get().(*scoreScratch)
	defer scoreScratches.Put(f) // nothing in res aliases it
	f.size(len(keys))
	scores, utils := f.scores, f.utils
	scored := score(ctx, acc, seen, 1, cfg.Utility.Peculiarity, scores)
	if scored < len(keys) {
		res.degrade("deadline_mid_finalize")
	}

	// order ranks the scored prefix: ranking a zero-valued score would be
	// wrong, leaving out what the cancelled pass never reached is merely
	// incomplete.
	order := f.order[:scored]
	for i := range order {
		order[i] = i
		utils[i] = ratingmap.DWUtility(scores[i].Aggregate(cfg.Utility), keys[i].Dim, seen, cfg.Utility)
	}
	kPrime = min(kPrime, scored)
	rankTop(order, utils, kPrime)
	res.Utilities = slices.Grow(res.Utilities, kPrime)
	for _, i := range order[:kPrime] {
		res.Utilities = append(res.Utilities, utils[i])
	}
	if keep != nil && !keep(res.Utilities) {
		res.Gated = true
		return
	}
	// Past its length, Maps holds the maps of earlier calls, or nil.
	res.Maps = slices.Grow(res.Maps, kPrime)[:kPrime]
	res.Scores = slices.Grow(res.Scores, kPrime)
	for j, i := range order[:kPrime] {
		res.Maps[j] = acc.SnapshotInto(res.Maps[j], i)
		res.Scores = append(res.Scores, scores[i])
	}
}

// scoreScratch is what one finalize call works in (a stride's estimate
// works in its call's pruner): per candidate position its scores and its
// utility, and the ranking. A guided step finalizes some 300 accumulators
// of ~90 candidates, so the three slices are borrowed from a pool for the
// length of the call rather than made by it (they were a tenth of a guided
// step's allocated bytes). The scratch is per call — two goroutines
// finalizing one cached accumulator each hold their own.
type scoreScratch struct {
	scores []ratingmap.Scores
	utils  []float64
	order  []int
}

var scoreScratches = sync.Pool{New: func() any { return new(scoreScratch) }}

// size readies the scratch for n candidates. The slices keep what the last
// call left; a call reads no position it has not written.
func (f *scoreScratch) size(n int) {
	f.scores = slices.Grow(f.scores[:0], n)[:n]
	f.utils = slices.Grow(f.utils[:0], n)[:n]
	f.order = slices.Grow(f.order[:0], n)[:n]
}

// rankTopFactor: rankTop inserts while the answer is at most a third of the
// ranking and sorts past that. BenchmarkRankTop (finalize_test.go; one
// vCPU): the stable sort ranks 92 candidates, the guided step's shape, in
// 3.7 µs; insertion takes their first 9 (k′ of a guided step) in 0.5 µs,
// their first 30 in 2.2 and all 92 in 5.8. Of 400 (26 µs sorted) it takes
// the first 30 in 6.3 µs and the first 92 in 27.
const rankTopFactor = 3

// rankTop permutes order so that its first k positions are the first k of
// the ranking by descending utility, ties in order's own order — the prefix
// slices.SortStableFunc leaves, which is all finalize reads.
func rankTop(order []int, utils []float64, k int) {
	if rankTopFactor*k > len(order) {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(utils[b], utils[a]) })
		return
	}
	insertTop(order, utils, k)
}

// insertTop is rankTop in one pass: the best k seen so far stay sorted at
// the front, a candidate enters behind everything not below it, and the one
// it pushes out takes its place in the unranked rest. Work is the ranking's
// length plus the shifts, at worst k per candidate.
func insertTop(order []int, utils []float64, k int) {
	top := 0
	for i, x := range order {
		if top == k {
			if cmp.Compare(utils[x], utils[order[k-1]]) <= 0 {
				continue
			}
			order[i] = order[k-1]
			top--
		}
		j := top
		for ; j > 0 && cmp.Compare(utils[x], utils[order[j-1]]) > 0; j-- {
			order[j] = order[j-1]
		}
		order[j] = x
		top++
	}
}
