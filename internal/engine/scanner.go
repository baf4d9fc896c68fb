// Pluggable range scanning: the seam through which the distributed
// engine (internal/cluster) takes over the scan half of TopMaps while
// the rest of Algorithm 1 — candidate enumeration, phase scheduling,
// estimation, pruning, finalization — keeps running unchanged in the
// coordinator process.
//
// The exactness argument is one sentence: every fold of a record range
// goes through scanRange, and scanRange merges contiguous subranges —
// local shards or remote partitions — in range order. Accumulator.Merge is
// associative and bit-exact on integer histograms (FuzzMerge), so either
// merge is bit-for-bit identical to one sequential Update over the range.
// The engine and cluster differential harnesses assert exactly that, in
// process and across the network.

package engine

import (
	"context"
	"fmt"
	"time"

	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// RangeScanner scans group.Records[lo:hi] for the given candidate keys
// somewhere other than this process. Implementations must be safe for
// concurrent use (sessions share one generator).
type RangeScanner interface {
	// ScanRange returns partial accumulators covering a prefix of the
	// [lo, hi) range split into contiguous partitions, in partition
	// order. A lost partition (worker failure past the retry budget)
	// truncates the result to the partitions before it — the consistent
	// prefix the anytime contract needs — and is reported via Lost, not
	// via error. Errors are reserved for calls that produced nothing
	// trustworthy (unbound fingerprint, invalid range).
	ScanRange(ctx context.Context, group *query.RatingGroup, keys []ratingmap.Key, lo, hi int) (*RangeScan, error)
}

// RangeScan is one distributed scan's result.
type RangeScan struct {
	// Partials holds the per-partition accumulators of the merged
	// prefix, in partition order. Empty partitions may be elided.
	Partials []*ratingmap.Accumulator
	// Partitions is how many partitions the range was split into.
	Partitions int
	// Records counts records covered by Partials (== hi-lo when Lost is 0).
	Records int
	// Lost counts trailing partitions dropped after a failure: the first
	// failed partition and everything after it, since a non-contiguous
	// merge would break the consistent-prefix semantics estimates and
	// Hoeffding-Serfling radii assume.
	Lost int
	// Profiles carries per-partition timing/attempt detail for EXPLAIN.
	Profiles []PartitionProfile
}

// PartitionProfile describes one partition of a distributed scan, for
// Profile.Cluster (?explain=1).
type PartitionProfile struct {
	// Partition is the partition index within its ScanRange call.
	Partition int `json:"partition"`
	// Worker is the base URL of the worker that served (or last failed)
	// the partition.
	Worker string `json:"worker,omitempty"`
	// Records is the partition's record-range length.
	Records int `json:"records"`
	// Attempts counts RPC attempts including the successful one.
	Attempts int `json:"attempts"`
	// ScanMS is the worker-reported scan time; RPCMS the coordinator-
	// observed round trip of the successful attempt.
	ScanMS float64 `json:"scan_ms"`
	RPCMS  float64 `json:"rpc_ms"`
	// Lost marks a partition dropped after exhausting the retry budget.
	Lost bool `json:"lost,omitempty"`
}

// scanRange folds group.Records[lo:hi] into acc — locally through the
// sharded scan, or through g.Scanner when one is installed — and
// reports how many records were actually folded plus whether a trailing
// part of the range was lost (degrading the call to anytime semantics).
// The phase loop (Generator.scan) is its only caller.
func (g *Generator) scanRange(ctx context.Context, acc *ratingmap.Accumulator, group *query.RatingGroup,
	lo, hi int, cfg Config, prof *Profile) (folded int, lost bool, err error) {
	if g.Scanner == nil {
		prof.noteShards(g.accumulate(acc, group.Records[lo:hi], cfg.Workers, cfg.ShardMinRecords))
		return hi - lo, false, nil
	}
	rs, err := g.Scanner.ScanRange(ctx, group, acc.Keys(), lo, hi)
	if err != nil {
		return 0, false, fmt.Errorf("engine: distributed scan [%d:%d): %w", lo, hi, err)
	}
	mergeStart := time.Now()
	for _, p := range rs.Partials {
		acc.Merge(p)
	}
	prof.ClusterMergeMS += msSince(mergeStart)
	prof.Cluster = append(prof.Cluster, rs.Profiles...)
	prof.noteShards(rs.Partitions)
	return rs.Records, rs.Lost > 0, nil
}

// ScanInto exposes the sharded scan to cluster workers: it folds records
// into acc exactly as a phase scan would, reporting the shard count. The
// records slice is any contiguous subrange the coordinator assigned —
// workers never need the whole group.
func (g *Generator) ScanInto(acc *ratingmap.Accumulator, records []int32, workers, minPerShard int) int {
	return g.accumulate(acc, records, workers, minPerShard)
}
