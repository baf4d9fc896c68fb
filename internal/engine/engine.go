// Package engine implements the RM-Generator of SubDEx (§4.2.1): the
// phase-based execution framework of Algorithm 1 with the paper's two
// sharing optimizations (combined aggregates via the shared accumulator,
// parallel execution via a worker pool) and its two pruning schemes — the
// confidence-interval pruning of Algorithm 3 built on Hoeffding-Serfling
// worst-case intervals, and the multi-armed-bandit pruning built on the
// Successive Accepts and Rejects strategy. Given a rating group, it returns
// (w.h.p.) the k×l rating maps with the highest dimension-weighted
// utilities.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	// Workers bounds parallel per-phase estimation; ≤1 disables
	// parallelism (the No-Parallelism and Naive baselines).
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
// DW utility, aligned utilities, and observability counters.
type Result struct {
	Maps      []*ratingmap.RatingMap
	Utilities []float64
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
	// Gated reports that the caller's keep function (TopMapsIf) turned the
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
	// Metrics, when non-nil, receives hot-path telemetry (candidate,
	// pruning and finalization counters, latency and worker-utilization
	// histograms). Leave nil for a zero-overhead generator.
	Metrics *Metrics
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
// every unbound grouping attribute × every rating dimension (line 1 of
// Algorithm 1).
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

// TopMaps runs Algorithm 1: it returns w.h.p. the kPrime = k×l candidates
// with the highest DW utilities over the group's records, ranked by exact
// utility, pruning low-utility candidates at phase boundaries.
//
// TopMaps is an XCtx compatibility shim: a context-free wrapper F that
// delegates to FCtx with context.Background(), keeping the pre-context
// API alive. Shims like this (TopMaps, core.Session.Step,
// core.Explorer.RMSet) are the only non-main, non-test call sites where
// the ctxflow analyzer permits minting a root context.
func (g *Generator) TopMaps(group *query.RatingGroup, candidates []ratingmap.Key,
	seen *ratingmap.SeenSet, kPrime int, cfg Config) (*Result, error) {
	return g.TopMapsCtx(context.Background(), group, candidates, seen, kPrime, cfg)
}

// TopMapsCtx is TopMaps with span propagation and cooperative
// cancellation. It is Algorithm 1 in four stages, each its own function:
//
//  1. cache lookup — a completed unpruned accumulator for this exact
//     (group, candidate set, utility config) skips stages 2 and 3; a group
//     under the cache's admission floor (cacheFloorRecords) is not looked
//     up and scans into a recycled accumulator;
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
// The context is consulted before every stride and inside the
// estimate/finalize worker loops. Cancellation before the first stride
// completes returns ctx.Err(). Cancellation after that degrades instead
// of failing: the scan stops at the last completed stride boundary and
// the survivors are finalized over the records processed so far —
// Algorithm 1 is an anytime algorithm, every stride boundary is a
// consistent record prefix — yielding a Result with Degraded set and
// RecordsProcessed reporting the prefix length.
func (g *Generator) TopMapsCtx(ctx context.Context, group *query.RatingGroup, candidates []ratingmap.Key,
	seen *ratingmap.SeenSet, kPrime int, cfg Config) (*Result, error) {
	return g.TopMapsIfCtx(ctx, group, candidates, seen, kPrime, cfg, nil)
}

// TopMapsIf is TopMaps for a caller that may not want the maps once it has
// seen how they rank — the Recommendation Builder, which sums a candidate
// operation's maps into one number and keeps the operation only if that
// number can still reach its top-o. keep is handed the top kPrime utilities
// in rank order after ranking and before any map is materialized; when it
// returns false the call stops there, Result.Gated set, Utilities what keep
// saw and Maps empty. A nil keep keeps everything: TopMaps.
//
// TopMapsIf is an XCtx compatibility shim like TopMaps.
func (g *Generator) TopMapsIf(group *query.RatingGroup, candidates []ratingmap.Key,
	seen *ratingmap.SeenSet, kPrime int, cfg Config, keep func(ranked []float64) bool) (*Result, error) {
	return g.TopMapsIfCtx(context.Background(), group, candidates, seen, kPrime, cfg, keep)
}

// TopMapsIfCtx is TopMapsCtx with TopMapsIf's keep: the one implementation
// behind all four entry points.
func (g *Generator) TopMapsIfCtx(ctx context.Context, group *query.RatingGroup, candidates []ratingmap.Key,
	seen *ratingmap.SeenSet, kPrime int, cfg Config, keep func(ranked []float64) bool) (*Result, error) {
	if kPrime <= 0 {
		return nil, fmt.Errorf("engine: kPrime must be positive, got %d", kPrime)
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
	g.Metrics.addCandidates(len(candidates))
	n := len(group.Records)
	prof := &Profile{Cache: "off", Workers: max(cfg.Workers, 1), GroupRecords: n, Considered: len(candidates)}
	res := &Result{Considered: len(candidates), Profile: prof}
	defer g.endTopMaps(span, start, res)
	if len(candidates) == 0 {
		return res, nil
	}

	// The cached accumulator is shared and read-only; finalize never
	// mutates it.
	var key string
	var acc *ratingmap.Accumulator
	bypass := g.Cache != nil && n < cacheFloorRecords
	switch {
	case g.Cache == nil:
	case bypass:
		g.Cache.bypass()
		g.Metrics.addCacheBypass()
		prof.Cache = "bypass"
	default:
		key = cacheKey(group, candidates, cfg.Utility)
		if cached, ok := g.Cache.get(key); ok {
			acc = cached
			g.Metrics.addCacheHit()
			prof.Cache = "hit"
		} else {
			g.Metrics.addCacheMiss()
			prof.Cache = "miss"
		}
	}
	if acc != nil {
		if cfg.PhaseHook != nil {
			cfg.PhaseHook(ctx, 0)
		}
		if err := ctx.Err(); err != nil {
			return nil, err // nothing served yet: fail, don't degrade
		}
		res.RecordsProcessed = n
	} else {
		if bypass {
			// No one else will ever see this accumulator, so it is a
			// recycled one, handed back when the call returns: nothing in
			// res aliases it (SnapshotAt copies).
			acc = bypassAccumulators.Get().(*ratingmap.Accumulator)
			defer bypassAccumulators.Put(acc)
			g.Builder.Recycle(acc, group.Desc, candidates)
		} else {
			acc = g.Builder.NewAccumulator(group.Desc, candidates)
		}
		if err := g.scan(ctx, acc, group, seen, kPrime, cfg, res); err != nil {
			return nil, err
		}
		g.maybeCache(key, acc, res, n)
	}

	// Finalize over whatever prefix was accumulated. A degraded run
	// finalizes under a detached context: the final scoring pass is cheap
	// (it reads accumulated statistics, not records) and must complete for
	// the anytime result to be usable.
	fctx := ctx
	if res.Degraded {
		fctx = context.WithoutCancel(ctx)
	}
	fstart := time.Now()
	g.finalize(fctx, acc, seen, kPrime, cfg, keep, res)
	prof.FinalizeMS = msSince(fstart)
	return res, nil
}

// bypassAccumulators recycles the accumulators of groups under the cache's
// admission floor, one per call in flight. What is reused is capacity
// (ratingmap.Builder.Recycle), not content: a recommendation pass runs
// through some two dozen candidate-key sets — each Filter attribute drops
// its own keys — over one schema, so nearly every call finds arrays that
// already fit.
var bypassAccumulators = sync.Pool{New: func() any { return new(ratingmap.Accumulator) }}

// endTopMaps closes a TopMaps call — failed ones included — by copying the
// result's counters into the metrics, the profile and the span.
func (g *Generator) endTopMaps(span *obs.Span, start time.Time, res *Result) {
	prof := res.Profile
	g.Metrics.addPruned(res.PrunedCI, res.PrunedMAB)
	g.Metrics.addFinalized(len(res.Maps))
	g.Metrics.observeTopMaps(time.Since(start))
	if res.Degraded {
		g.Metrics.addDegraded()
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
	prof.Phases = make([]PhaseProfile, 0, phases)

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
			err = g.prune(ctx, pr, acc, seen, cfg, phase, processed, n, res)
		}
		st.end(g.Metrics, res, folded, len(acc.Keys()))
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

func (s stride) end(m *Metrics, res *Result, records, alive int) {
	row := PhaseProfile{
		Phase:      s.phase,
		DurationMS: msSince(s.start),
		Records:    records,
		Alive:      alive,
		PrunedCI:   res.PrunedCI - s.ci,
		PrunedMAB:  res.PrunedMAB - s.mab,
	}
	m.observePhase(time.Since(s.start))
	s.span.SetAttr("alive", row.Alive)
	s.span.SetAttr("pruned_ci", row.PrunedCI)
	s.span.SetAttr("pruned_mab", row.PrunedMAB)
	s.span.End()
	res.Profile.Phases = append(res.Profile.Phases, row)
}

// pruner is the pruning state carried from stride to stride: which
// candidates are still accumulated and, under bandit pruning, the arms'
// accept/reject state. A nil *pruner never prunes.
type pruner struct {
	// alive maps candidate index → key for candidates still accumulated.
	alive  map[int]ratingmap.Key
	sar    *bandit.SAR // nil without PruneMAB / PruneBoth
	ci     bool        // PruneCI / PruneBoth
	kPrime int
}

func newPruner(candidates []ratingmap.Key, kPrime int, mode Pruning) (*pruner, error) {
	p := &pruner{alive: make(map[int]ratingmap.Key, len(candidates)), ci: mode != PruneMAB, kPrime: kPrime}
	for i, k := range candidates {
		p.alive[i] = k
	}
	if mode != PruneCI {
		ids := make([]int, len(candidates))
		for i := range ids {
			ids[i] = i
		}
		var err error
		if p.sar, err = bandit.NewSAR(ids, kPrime); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// active reports whether pruning can still drop a candidate: once the
// survivors all fit in the answer, the remaining strides only scan.
func (p *pruner) active() bool { return p != nil && len(p.alive) > p.kPrime }

// prune runs between strides: it estimates every survivor on the processed
// record prefix, then drops the candidates Algorithm 3's intervals and the
// bandit rule out. A deadline inside the estimate leaves the stride's
// records accumulated (a consistent prefix) but the estimates incomplete,
// so pruning is skipped and the call degrades to finalizing the prefix.
func (g *Generator) prune(ctx context.Context, p *pruner, acc *ratingmap.Accumulator, seen *ratingmap.SeenSet,
	cfg Config, phase, processed, total int, res *Result) error {
	est, aborted := g.estimate(ctx, acc, p.alive, seen, cfg, processed, total)
	if aborted {
		res.degrade("deadline_mid_estimate")
		return nil
	}
	if p.ci {
		for _, idx := range ciPrune(est, processed, total, p.kPrime, p.sar) {
			acc.Remove(p.alive[idx])
			delete(p.alive, idx)
			res.PrunedCI++
		}
	}
	if p.sar == nil {
		return nil
	}
	for _, e := range est {
		if _, ok := p.alive[e.idx]; ok {
			if err := p.sar.SetMean(e.idx, e.dwMean); err != nil {
				return err
			}
		}
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
		if k, live := p.alive[id]; live && st == bandit.Rejected {
			acc.Remove(k)
			delete(p.alive, id)
			res.PrunedMAB++
		}
	}
	return nil
}

// estimateEntry carries one candidate's per-criterion estimates and its
// dimension-weighted mean at a phase boundary.
type estimateEntry struct {
	idx    int
	scores ratingmap.Scores
	weight float64
	dwMean float64
}

// estimate computes the alive candidates' bounded criterion estimates in
// parallel (the "parallel query execution" sharing optimization: up to
// cfg.Workers candidates are scored simultaneously), in ascending candidate
// index. Remove keeps the accumulator's keys in candidate order, so the
// alive candidate with the p-th smallest index is the accumulator's
// candidate p and is scored there. The workers consult ctx between
// candidates; on cancellation the whole estimate is abandoned (aborted =
// true) — partial estimates must never feed pruning decisions.
func (g *Generator) estimate(ctx context.Context, acc *ratingmap.Accumulator, alive map[int]ratingmap.Key,
	seen *ratingmap.SeenSet, cfg Config, processed, total int) (est []estimateEntry, aborted bool) {
	recordScale := 1.0
	if processed > 0 {
		recordScale = float64(total) / float64(processed)
	}
	idxs := make([]int, 0, len(alive))
	for i := range alive {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	est = make([]estimateEntry, len(idxs))
	keys := acc.Keys()
	var abort atomic.Bool
	util := cfg.Utility // the closure captures the scoring config, not the whole Config
	g.parallel(len(idxs), cfg.Workers, func(_, lo, hi int) {
		var memo ratingmap.PecMemo // per chunk: no worker shares one
		for p := lo; p < hi; p++ {
			if ctx.Err() != nil {
				abort.Store(true)
				return
			}
			scores := acc.ScoresAt(p, seen, recordScale, util.Peculiarity, &memo)
			w := seen.Weight(keys[p].Dim)
			if util.DisableDimensionWeights {
				w = 1
			}
			est[p] = estimateEntry{
				idx:    idxs[p],
				scores: scores,
				weight: w,
				dwMean: w * scores.Aggregate(util),
			}
		}
	})
	if abort.Load() {
		return nil, true
	}
	return est, false
}

// ciPrune applies Algorithm 3. Each candidate's interval is built per
// criterion from the Hoeffding-Serfling radius at (processed, total), then
// collapsed for the max-of-criteria utility: the interval of a maximum of
// quantities is [max of lower bounds, max of upper bounds] — every criterion
// interval lying entirely below another is discarded, exactly the loop of
// lines 2-9. Both bounds are then scaled by the dimension weight (lines
// 10-11). A candidate is pruned when its upper bound falls below the lowest
// lower bound of the current top-kPrime (lines 12-17). Arms already accepted
// by the bandit are exempt. est is estimate's, in ascending candidate index;
// returns the pruned candidate indexes.
func ciPrune(est []estimateEntry, processed, total, kPrime int, sar *bandit.SAR) []int {
	if len(est) <= kPrime {
		return nil
	}
	radius := stats.HoeffdingSerflingRadius(processed, total, Delta)
	type bound struct {
		idx    int
		lo, hi float64
	}
	accepted := make(map[int]bool)
	if sar != nil {
		for _, id := range sar.Accepted() {
			accepted[id] = true
		}
	}
	// est is in ascending candidate index and ranking ties break by index,
	// so candidates with equal upper bounds straddling the k' cutoff are
	// pruned the same way on every run.
	bounds := make([]bound, 0, len(est))
	for _, e := range est {
		lo, hi := -1.0, -1.0
		for _, s := range e.scores {
			l := stats.Clamp(s-radius, 0, 1)
			h := stats.Clamp(s+radius, 0, 1)
			if l > lo {
				lo = l
			}
			if h > hi {
				hi = h
			}
		}
		bounds = append(bounds, bound{idx: e.idx, lo: lo * e.weight, hi: hi * e.weight})
	}
	sort.Slice(bounds, func(i, j int) bool {
		if bounds[i].hi != bounds[j].hi {
			return bounds[i].hi > bounds[j].hi
		}
		return bounds[i].idx < bounds[j].idx
	})
	lowest := bounds[0].lo
	for _, b := range bounds[1:min(kPrime, len(bounds))] {
		if b.lo < lowest {
			lowest = b.lo
		}
	}
	var pruned []int
	for _, b := range bounds[min(kPrime, len(bounds)):] {
		if b.hi < lowest && !accepted[b.idx] {
			pruned = append(pruned, b.idx)
		}
	}
	return pruned
}

// maybeCache admits the accumulator into the cross-step cache when it is
// a complete, unpruned scan of the whole group: no candidate was removed
// mid-scan (every histogram covers every record) and the scan reached the
// final record. key is empty when no cache is installed or the group
// bypasses it. A degraded *finalize* does not block admission — degradation
// there only truncates scoring, the accumulated counts are already complete.
func (g *Generator) maybeCache(key string, acc *ratingmap.Accumulator, res *Result, n int) {
	if key == "" || res.PrunedCI > 0 || res.PrunedMAB > 0 || res.RecordsProcessed != n {
		return
	}
	evicted, bytes := g.Cache.put(key, acc, n)
	g.Metrics.addCacheEvictions(evicted)
	g.Metrics.setCacheBytes(bytes)
}

// InvalidateCache drops every cached accumulator (TopMapsCache.Invalidate)
// and brings the cache-bytes gauge down with them. Nil-safe like the cache.
func (g *Generator) InvalidateCache() {
	g.Cache.Invalidate()
	g.Metrics.setCacheBytes(0)
}

// finalize scores all remaining candidates on their full accumulated data
// using the allocation-light estimator, ranks them, and materializes only
// the top kPrime as rating maps — and those only if keep, when there is
// one, accepts their utilities (TopMapsIf). With normalization enabled in
// the utility config, criterion columns are min-max normalized across the
// survivors before aggregation, per Somech et al. [51].
//
// The workers consult ctx between candidates: if the context dies
// mid-finalize, unscored candidates are dropped from the ranking and the
// result is marked Degraded (callers that already degraded pass a
// detached context so the anytime result is always fully scored).
func (g *Generator) finalize(ctx context.Context, acc *ratingmap.Accumulator, seen *ratingmap.SeenSet,
	kPrime int, cfg Config, keep func(ranked []float64) bool, res *Result) {
	keys := acc.Keys()
	f := finalizeScratches.Get().(*finalizeScratch)
	defer finalizeScratches.Put(f) // nothing in res aliases it
	f.size(len(keys))
	scores, scored, utils := f.scores, f.scored, f.utils
	peculiarity := cfg.Utility.Peculiarity
	g.parallel(len(keys), cfg.Workers, func(_, lo, hi int) {
		var memo ratingmap.PecMemo // per chunk: no worker shares one
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			scores[i] = acc.ScoresAt(i, seen, 1, peculiarity, &memo)
			scored[i] = true
		}
	})

	// order lists the scored candidates by accumulator position. Those the
	// cancelled scoring pass never reached are left out; ranking a
	// zero-valued score would be wrong, excluding it is merely incomplete.
	order := f.order // empty, with room for every candidate
	for i, ok := range scored {
		if ok {
			order = append(order, i)
		}
	}
	if len(order) < len(keys) {
		res.degrade("deadline_mid_finalize")
	}

	if cfg.Utility.Normalize && len(order) > 1 {
		col := make([]float64, len(order))
		for c := ratingmap.Criterion(0); c < ratingmap.NumCriteria; c++ {
			for j, i := range order {
				col[j] = scores[i][c]
			}
			stats.MinMaxNormalize(col)
			for j, i := range order {
				scores[i][c] = col[j]
			}
		}
	}
	for _, i := range order {
		utils[i] = ratingmap.DWUtility(scores[i].Aggregate(cfg.Utility), keys[i].Dim, seen, cfg.Utility)
	}
	kPrime = min(kPrime, len(order))
	rankTop(order, utils, kPrime)
	res.Utilities = make([]float64, 0, kPrime)
	for _, i := range order[:kPrime] {
		res.Utilities = append(res.Utilities, utils[i])
	}
	if keep != nil && !keep(res.Utilities) {
		res.Gated = true
		return
	}
	res.Maps = make([]*ratingmap.RatingMap, 0, kPrime)
	for _, i := range order[:kPrime] {
		res.Maps = append(res.Maps, acc.SnapshotAt(i))
	}
}

// finalizeScratch is what one finalize call works in: per candidate
// position its scores, whether the pass reached it and its utility, and the
// ranking. A guided step finalizes some 300 accumulators of ~90 candidates,
// so the four slices are borrowed from a pool for the length of the call
// rather than made by it (they were a tenth of a guided step's allocated
// bytes). The scratch is per call — two goroutines finalizing one cached
// accumulator each hold their own.
type finalizeScratch struct {
	scores []ratingmap.Scores
	scored []bool
	utils  []float64
	order  []int
}

var finalizeScratches = sync.Pool{New: func() any { return new(finalizeScratch) }}

// size readies the scratch for n candidates: nothing scored, order empty.
// scores and utils keep what the last call left; finalize reads neither at
// a position it has not written.
func (f *finalizeScratch) size(n int) {
	f.scores = slices.Grow(f.scores[:0], n)[:n]
	f.utils = slices.Grow(f.utils[:0], n)[:n]
	f.order = slices.Grow(f.order[:0], n)
	f.scored = slices.Grow(f.scored[:0], n)[:n]
	clear(f.scored)
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
