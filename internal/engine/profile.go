// Per-call EXPLAIN profiles. A Profile is the structured answer to "what
// did the generator actually do for this step": whether the cache served
// it, how the scan was sharded, what each stride cost and pruned, and why
// a degraded result stopped where it did. It rides on Result (and from
// there on core.StepResult and the server's ?explain=1 step JSON), so the
// numbers the spans and metrics aggregate stay attributable per step.

package engine

import "time"

// msSince renders elapsed wall time in fractional milliseconds, the unit
// every profile duration uses (matching SpanData.DurationMS).
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// PhaseProfile describes one executed stride of the phase loop: one record
// fraction folded, then (while pruning is still on) estimated and pruned.
// Every scan has at least one — a group scanned in a single pass reports
// its one stride as phase 0 — and strides after pruning has stopped get a
// row each, so the rows' Records always sum to Profile.RecordsScanned.
type PhaseProfile struct {
	// Phase is the phase index (line 2 of Algorithm 1).
	Phase int `json:"phase"`
	// DurationMS is the stride's wall time, including pruning decisions.
	DurationMS float64 `json:"duration_ms"`
	// Records counts group records folded into the accumulator during the
	// stride (fewer than the fraction when a partition was lost).
	Records int `json:"records"`
	// Alive is the surviving candidate count after the stride's pruning.
	Alive int `json:"alive"`
	// PrunedCI and PrunedMAB count candidates each scheme dropped here.
	PrunedCI  int `json:"pruned_ci"`
	PrunedMAB int `json:"pruned_mab"`
}

// Profile is the per-call execution profile of one TopMaps run.
type Profile struct {
	// Phased reports whether the group was scanned in Config.Phases
	// fractions with pruning between them (false for sub-threshold
	// groups, PruneNone, candidate sets that already fit in k′, and cache
	// hits — those scan in one stride or not at all).
	Phased bool `json:"phased"`
	// Cache is the cross-step accumulator cache outcome: "hit", "miss",
	// "bypass" for a group under the admission floor (scanned without a
	// lookup), or "off" when no cache is installed.
	Cache string `json:"cache"`
	// Workers is the configured scan parallelism, Config.Workers clamped
	// to ≥ 1 (scoring is sequential).
	Workers int `json:"workers"`
	// Shards is the widest sharding any accumulate call actually used
	// (1 = every scan ran sequentially; 0 = no scan ran at all).
	Shards int `json:"shards"`
	// Considered is the initial candidate count.
	Considered int `json:"considered"`
	// PrunedCI and PrunedMAB mirror the Result counters.
	PrunedCI  int `json:"pruned_ci"`
	PrunedMAB int `json:"pruned_mab"`
	// RecordsScanned counts records actually folded into an accumulator
	// this call — 0 on a cache hit, where RecordsProcessed still reports
	// the full group.
	RecordsScanned int `json:"records_scanned"`
	// GroupRecords is the group size the scan was up against.
	GroupRecords int `json:"group_records"`
	// Phases has one row per executed stride, in order (empty only when
	// nothing was scanned: a cache hit or no candidates).
	// Σ Phases[].Records == RecordsScanned.
	Phases []PhaseProfile `json:"phases,omitempty"`
	// Cluster details every partition of every distributed scan the call
	// issued (empty without a Generator.Scanner): per-worker scan and
	// RPC timings, attempts, and lost partitions.
	Cluster []PartitionProfile `json:"cluster,omitempty"`
	// ClusterMergeMS is the total coordinator-side time merging partial
	// accumulators shipped back by workers.
	ClusterMergeMS float64 `json:"cluster_merge_ms,omitempty"`
	// FinalizeMS is the final scoring-and-ranking pass's wall time.
	FinalizeMS float64 `json:"finalize_ms"`
	// TotalMS is the whole call's wall time.
	TotalMS float64 `json:"total_ms"`
	// DegradedReason says what cut a degraded run short:
	// "deadline_at_phase_boundary" (before a stride, pruned or not — this
	// absorbed the former "deadline_mid_tail_scan"),
	// "deadline_mid_estimate", "deadline_mid_finalize", or
	// "partition_lost" when a distributed scan dropped a partition after
	// exhausting its retry budget.
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// noteShards records the widest sharding seen across accumulate calls.
func (p *Profile) noteShards(shards int) {
	if p != nil && shards > p.Shards {
		p.Shards = shards
	}
}
