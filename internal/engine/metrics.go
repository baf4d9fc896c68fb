package engine

import (
	"time"

	"subdex/internal/obs"
)

// Metrics bundles the generator's hot-path instruments. Resolve one with
// NewMetrics at startup and attach it to Generator.Metrics; a nil
// *Metrics (the default) makes every record call a no-op, so the
// instrumented hot path costs nothing to library users and tests.
type Metrics struct {
	// Candidates counts rating-map candidates enumerated across TopMaps
	// calls (subdex_engine_candidates_total).
	Candidates *obs.Counter
	// PrunedCI / PrunedMAB count candidates eliminated by each pruning
	// scheme (subdex_engine_candidates_pruned_total{strategy=...}).
	PrunedCI  *obs.Counter
	PrunedMAB *obs.Counter
	// Finalized counts rating maps materialized into results
	// (subdex_engine_maps_finalized_total).
	Finalized *obs.Counter
	// Degraded counts TopMaps calls that returned anytime (prefix-scan)
	// results after a deadline or cancellation
	// (subdex_engine_topmaps_degraded_total).
	Degraded *obs.Counter
	// TopMapsLatency is the per-TopMaps wall-clock histogram in seconds
	// (subdex_engine_topmaps_duration_seconds).
	TopMapsLatency *obs.Histogram
	// PhaseLatency times one executed stride of the phase loop: the
	// partial scan plus, while pruning is on, the estimation and pruning
	// that follow it. A group scanned in one pass is one stride
	// (subdex_engine_phase_duration_seconds).
	PhaseLatency *obs.Histogram
	// WorkerUtilization is Σ busy-time / (wall × workers) of every run of
	// the engine's worker pool (sharded scan, estimate, finalize) that
	// used more than one worker, in (0,1]
	// (subdex_engine_worker_utilization_ratio).
	WorkerUtilization *obs.Histogram
	// CacheHits / CacheMisses / CacheEvictions count cross-step
	// accumulator cache traffic (subdex_engine_cache_hits_total,
	// subdex_engine_cache_misses_total,
	// subdex_engine_cache_evictions_total).
	CacheHits      *obs.Counter
	CacheMisses    *obs.Counter
	CacheEvictions *obs.Counter
	// CacheBypass counts TopMaps calls whose group was under the cache's
	// admission floor and went past it (subdex_engine_cache_bypass_total);
	// CacheBytes is what the cached accumulators hold
	// (subdex_engine_cache_bytes).
	CacheBypass *obs.Counter
	CacheBytes  *obs.Gauge
}

// NewMetrics registers the engine's instruments on r. A nil registry
// yields a nil (no-op) Metrics.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Candidates: r.Counter("subdex_engine_candidates_total",
			"Rating-map candidates enumerated by the RM-Generator."),
		PrunedCI: r.Counter("subdex_engine_candidates_pruned_total",
			"Candidates eliminated at phase boundaries, by pruning strategy.",
			obs.L("strategy", "ci")),
		PrunedMAB: r.Counter("subdex_engine_candidates_pruned_total",
			"Candidates eliminated at phase boundaries, by pruning strategy.",
			obs.L("strategy", "mab")),
		Finalized: r.Counter("subdex_engine_maps_finalized_total",
			"Rating maps materialized into TopMaps results."),
		Degraded: r.Counter("subdex_engine_topmaps_degraded_total",
			"TopMaps calls degraded to anytime prefix results by deadline or cancellation."),
		TopMapsLatency: r.Histogram("subdex_engine_topmaps_duration_seconds",
			"Wall-clock duration of one TopMaps call.", nil),
		PhaseLatency: r.Histogram("subdex_engine_phase_duration_seconds",
			"Duration of one executed stride of the Algorithm 1 phase loop (scan + estimate + prune).", nil),
		WorkerUtilization: r.Histogram("subdex_engine_worker_utilization_ratio",
			"Busy-time share of the engine worker pool (scan shards, estimate, finalize).",
			obs.RatioBuckets),
		CacheHits: r.Counter("subdex_engine_cache_hits_total",
			"TopMaps calls served from the cross-step accumulator cache."),
		CacheMisses: r.Counter("subdex_engine_cache_misses_total",
			"TopMaps cache lookups that missed and fell back to a scan."),
		CacheEvictions: r.Counter("subdex_engine_cache_evictions_total",
			"Accumulator cache entries evicted by the record budget."),
		CacheBypass: r.Counter("subdex_engine_cache_bypass_total",
			"TopMaps calls on groups under the cache's admission floor: scanned without a lookup."),
		CacheBytes: r.Gauge("subdex_engine_cache_bytes",
			"Bytes held by the accumulators in the cross-step cache."),
	}
}

// Nil-safe recording helpers: the hot path calls these unconditionally.

func (m *Metrics) addCandidates(n int) {
	if m == nil {
		return
	}
	m.Candidates.Add(int64(n))
}

func (m *Metrics) addPruned(ci, mab int) {
	if m == nil {
		return
	}
	m.PrunedCI.Add(int64(ci))
	m.PrunedMAB.Add(int64(mab))
}

func (m *Metrics) addFinalized(n int) {
	if m == nil {
		return
	}
	m.Finalized.Add(int64(n))
}

func (m *Metrics) addDegraded() {
	if m == nil {
		return
	}
	m.Degraded.Inc()
}

func (m *Metrics) observeTopMaps(d time.Duration) {
	if m == nil {
		return
	}
	m.TopMapsLatency.ObserveDuration(d)
}

func (m *Metrics) observePhase(d time.Duration) {
	if m == nil {
		return
	}
	m.PhaseLatency.ObserveDuration(d)
}

func (m *Metrics) addCacheHit() {
	if m == nil {
		return
	}
	m.CacheHits.Inc()
}

func (m *Metrics) addCacheMiss() {
	if m == nil {
		return
	}
	m.CacheMisses.Inc()
}

func (m *Metrics) addCacheEvictions(n int) {
	if m == nil {
		return
	}
	m.CacheEvictions.Add(int64(n))
}

func (m *Metrics) addCacheBypass() {
	if m == nil {
		return
	}
	m.CacheBypass.Inc()
}

func (m *Metrics) setCacheBytes(n int64) {
	if m == nil {
		return
	}
	m.CacheBytes.Set(float64(n))
}

// observeUtilization records Σbusy/(wall×workers), clamped to (0,1].
func (m *Metrics) observeUtilization(busy, wall time.Duration, workers int) {
	if m == nil || wall <= 0 || workers < 1 {
		return
	}
	u := busy.Seconds() / (wall.Seconds() * float64(workers))
	if u > 1 {
		u = 1
	}
	m.WorkerUtilization.Observe(u)
}
