// Sharded parallel accumulation: the scan half of the "parallel query
// execution" sharing optimization of §4.2.1, and the engine's one worker
// pool (parallel), which the estimate and finalize passes share. The
// record range of a stride is split into contiguous per-worker shards;
// each worker folds its shard into a *private* ratingmap accumulator —
// the per-record hot loop takes no locks and shares no cache lines — and
// the shards are then merged into the target accumulator in shard order. Every count is an integer, so the merged
// state is bit-for-bit identical to a sequential scan of the same range
// regardless of scheduling; merging in shard order additionally makes the
// in-memory layout reproducible run-to-run. The differential harness
// (differential_test.go) proves the equivalence on randomized datasets.

package engine

import (
	"sync"
	"time"

	"subdex/internal/ratingmap"
)

// defaultShardMinRecords is the default per-shard floor for the parallel
// scan (Config.ShardMinRecords): below roughly this many records per
// worker, goroutine startup and the merge pass cost more than the scan
// they parallelize, so accumulate falls back to the sequential path.
// Chosen conservatively; tests set Config.ShardMinRecords to 1 to force
// multi-shard merges on tiny inputs.
const defaultShardMinRecords = 2048

// accumulate feeds records into acc, sharding the scan across up to
// workers goroutines when the range is large enough to pay for it:
// workers are clamped so no shard is smaller than minPerShard records
// (workers far above len(records) therefore degrades gracefully to one
// record per shard at most), and workers ≤ 1 (the No-Parallelism and
// Naive baselines) always scans sequentially. minPerShard ≤ 0 means the
// default floor. It reports how many shards the scan actually used (1
// for the sequential path), feeding the per-call Profile.
func (g *Generator) accumulate(acc *ratingmap.Accumulator, records []int32, workers, minPerShard int) int {
	if minPerShard <= 0 {
		minPerShard = defaultShardMinRecords
	}
	if mx := len(records) / minPerShard; workers > mx {
		workers = mx
	}
	if workers <= 1 {
		acc.Update(records)
		return 1
	}
	shards := make([]*ratingmap.Accumulator, workers)
	keys, desc := acc.Keys(), acc.Desc()
	g.parallel(len(records), workers, func(w, lo, hi int) {
		shards[w] = g.Builder.NewAccumulator(desc, keys)
		shards[w].Update(records[lo:hi])
	})
	// Deterministic merge: shard order, not completion order.
	for _, sh := range shards {
		acc.Merge(sh)
	}
	return workers
}

// parallel splits [0, n) into at most workers contiguous chunks and runs
// fn(w, lo, hi) on each — concurrently when there is more than one, inline
// otherwise. It owns every goroutine the engine starts, their WaitGroup,
// and the busy-time accounting behind the worker-utilization histogram
// (Σ busy / (wall × workers); a pool of one is not sampled).
func (g *Generator) parallel(n, workers int, fn func(w, lo, hi int)) {
	workers = min(workers, n)
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	poolStart := time.Now()
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			fn(w, w*n/workers, (w+1)*n/workers)
			busy[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	var totalBusy time.Duration
	for _, b := range busy {
		totalBusy += b
	}
	g.Metrics.observeUtilization(totalBusy, time.Since(poolStart), workers)
}
