package cluster

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// faultCluster boots one worker per hook (nil = healthy) and a
// coordinator over them.
func faultCluster(t testing.TB, db *dataset.DB, ccfg CoordinatorConfig,
	hooks []func(req *ScanRequest) error) *Coordinator {
	t.Helper()
	urls := make([]string, len(hooks))
	for i, hook := range hooks {
		wex, err := core.NewExplorer(db, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewWorker(wex, WorkerOptions{ScanHook: hook}).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	ccfg.Workers = urls
	if ccfg.HealthInterval == 0 {
		ccfg.HealthInterval = -1
	}
	if ccfg.LocalThreshold == 0 {
		ccfg.LocalThreshold = -1 // faults must reach the workers to fire
	}
	coord, err := NewCoordinator(context.Background(), db, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	bindTestFingerprint(t, coord, db)
	return coord
}

// TestFaultRetryThenSucceed kills one worker's first scan attempt: the
// bounded retry must re-dispatch the partition to the next worker and
// the final result must be digest-identical to single-node — a fault
// that retry absorbs leaves no trace in the answer.
func TestFaultRetryThenSucceed(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 4, Scale: 1})
	group, keys := allKeys(t, db)

	var failures atomic.Int32
	failOnce := func(req *ScanRequest) error {
		if failures.Add(1) == 1 {
			return errors.New("injected crash")
		}
		return nil
	}
	reg := obs.NewRegistry()
	coord := faultCluster(t, db, CoordinatorConfig{Partitions: 3, Retries: 2, Registry: reg},
		[]func(req *ScanRequest) error{failOnce, nil, nil})

	g := engine.NewGenerator(db)
	g.Scanner = coord
	cfg := engine.DefaultConfig()
	cfg.Pruning = engine.PruneNone
	got, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.NewGenerator(db).TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatal("retry-absorbed fault degraded the result")
	}
	if ratingmap.DigestMaps(got.Maps) != ratingmap.DigestMaps(want.Maps) {
		t.Fatal("digest diverged after retry")
	}
	if got.RecordsProcessed != want.RecordsProcessed {
		t.Fatalf("RecordsProcessed %d, want %d", got.RecordsProcessed, want.RecordsProcessed)
	}
	if failures.Load() < 1 {
		t.Fatal("fault hook never fired — the test exercised nothing")
	}
	if coord.m.Retries.Value() < 1 {
		t.Fatalf("subdex_cluster_retries_total = %d, want ≥ 1", coord.m.Retries.Value())
	}
	if coord.m.PartitionsLost.Value() != 0 {
		t.Fatalf("subdex_cluster_partitions_lost_total = %d, want 0", coord.m.PartitionsLost.Value())
	}
}

// TestFaultStallTimesOutAndRetries stalls one worker past the partition
// timeout: the attempt must be abandoned at the deadline and retried on
// the next worker, again without digest divergence.
func TestFaultStallTimesOutAndRetries(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 4, Scale: 1})
	group, keys := allKeys(t, db)

	var stalls atomic.Int32
	stallOnce := func(req *ScanRequest) error {
		if stalls.Add(1) == 1 {
			time.Sleep(600 * time.Millisecond) // >> PartitionTimeout below
		}
		return nil
	}
	coord := faultCluster(t, db, CoordinatorConfig{
		Partitions: 2, Retries: 2, PartitionTimeout: 150 * time.Millisecond,
	}, []func(req *ScanRequest) error{stallOnce, nil})

	g := engine.NewGenerator(db)
	g.Scanner = coord
	cfg := engine.DefaultConfig()
	cfg.Pruning = engine.PruneNone
	got, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.NewGenerator(db).TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || ratingmap.DigestMaps(got.Maps) != ratingmap.DigestMaps(want.Maps) {
		t.Fatalf("stall retry diverged: degraded=%v", got.Degraded)
	}
}

// TestFaultPartitionLostContract pins the exact degraded contract when
// a partition's every attempt fails: Result{Degraded: true,
// RecordsProcessed: <merged prefix>}, Profile.DegradedReason
// "partition_lost", digest equal to an honest scan of the prefix, and
// the loss metered.
func TestFaultPartitionLostContract(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 4, Scale: 1})
	group, keys := allKeys(t, db)
	n := len(group.Records)

	// Three workers, three partitions, zero retries: partition p is
	// pinned to worker p, and worker 2 always fails → partition 2 lost.
	alwaysFail := func(req *ScanRequest) error { return errors.New("injected outage") }
	reg := obs.NewRegistry()
	coord := faultCluster(t, db, CoordinatorConfig{Partitions: 3, Retries: -1, Registry: reg},
		[]func(req *ScanRequest) error{nil, nil, alwaysFail})

	g := engine.NewGenerator(db)
	g.Scanner = coord
	cfg := engine.DefaultConfig()
	cfg.Pruning = engine.PruneNone
	res, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("lost partition did not set Degraded")
	}
	if want := 2 * n / 3; res.RecordsProcessed != want {
		t.Fatalf("RecordsProcessed = %d, want the merged two-partition prefix %d", res.RecordsProcessed, want)
	}
	if res.Profile.DegradedReason != "partition_lost" {
		t.Fatalf("DegradedReason = %q, want partition_lost", res.Profile.DegradedReason)
	}
	lost := 0
	for _, pp := range res.Profile.Cluster {
		if pp.Lost {
			lost++
		}
	}
	if lost != 1 {
		t.Fatalf("profile marks %d lost partitions, want 1", lost)
	}
	prefix := *group
	prefix.Records = group.Records[:2*n/3]
	want, err := engine.NewGenerator(db).TopMapsCtx(context.Background(), &prefix, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratingmap.DigestMaps(res.Maps) != ratingmap.DigestMaps(want.Maps) {
		t.Fatal("degraded maps diverge from an honest scan of the merged prefix")
	}
	if coord.m.PartitionsLost.Value() != 1 {
		t.Fatalf("subdex_cluster_partitions_lost_total = %d, want 1", coord.m.PartitionsLost.Value())
	}
}

// TestFaultTotalOutage fails every worker: with nothing merged the call
// must error (matching a pre-first-phase deadline), not fabricate an
// empty result.
func TestFaultTotalOutage(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 4, Scale: 1})
	group, keys := allKeys(t, db)
	alwaysFail := func(req *ScanRequest) error { return errors.New("injected outage") }
	coord := faultCluster(t, db, CoordinatorConfig{Partitions: 3, Retries: 1},
		[]func(req *ScanRequest) error{alwaysFail, alwaysFail, alwaysFail})

	g := engine.NewGenerator(db)
	g.Scanner = coord
	cfg := engine.DefaultConfig()
	cfg.Pruning = engine.PruneNone
	if _, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg); err == nil {
		t.Fatal("total outage returned a result, want error")
	}
}

// TestLocalThresholdBypassesWorkers: with the default local threshold,
// a sub-threshold scan must fold on the coordinator's own dataset copy
// — exact results even while every worker is failing — and a scan above
// the threshold must still reach (and here lose) the workers.
func TestLocalThresholdBypassesWorkers(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 4, Scale: 1})
	group, keys := allKeys(t, db)
	n := len(group.Records)
	alwaysFail := func(req *ScanRequest) error { return errors.New("injected outage") }
	coord := faultCluster(t, db, CoordinatorConfig{LocalThreshold: n - 1, Registry: obs.NewRegistry()},
		[]func(req *ScanRequest) error{alwaysFail})

	g := engine.NewGenerator(db)
	g.Scanner = coord
	cfg := engine.DefaultConfig()
	cfg.Pruning = engine.PruneNone
	small := &query.RatingGroup{Desc: group.Desc, Records: group.Records[:n-1]}
	got, err := g.TopMapsCtx(context.Background(), small, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.NewGenerator(db).TopMapsCtx(context.Background(), small, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || ratingmap.DigestMaps(got.Maps) != ratingmap.DigestMaps(want.Maps) {
		t.Fatalf("local-threshold scan wrong: degraded=%v", got.Degraded)
	}
	if coord.m.RPCLatency.Count() != 0 {
		t.Fatalf("sub-threshold scan made %d worker RPCs, want 0", coord.m.RPCLatency.Count())
	}
	// One record over the threshold: the scan must go to the (failing)
	// workers and error out with nothing merged.
	if _, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg); err == nil {
		t.Fatal("above-threshold scan did not reach the failing workers")
	}
	if coord.m.RPCLatency.Count() == 0 {
		t.Fatal("above-threshold scan made no worker RPCs")
	}
}

// TestHealthProbeMarksDeadWorker: the health loop must flip a downed
// worker's verdict and the gauge.
func TestHealthProbeMarksDeadWorker(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 4, Scale: 1})
	wex, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(NewWorker(wex, WorkerOptions{}).Handler())
	t.Cleanup(live.Close)
	dead := httptest.NewServer(NewWorker(wex, WorkerOptions{}).Handler())
	dead.Close() // already down when the coordinator boots

	reg := obs.NewRegistry()
	coord, err := NewCoordinator(context.Background(), db, CoordinatorConfig{
		Workers:          []string{live.URL, dead.URL},
		HealthInterval:   20 * time.Millisecond,
		PartitionTimeout: time.Second,
		Registry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	bindTestFingerprint(t, coord, db)

	deadline := time.Now().Add(5 * time.Second)
	for coord.HealthyWorkers() != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := coord.HealthyWorkers(); got != 1 {
		t.Fatalf("HealthyWorkers = %d, want 1", got)
	}
	if v := coord.m.WorkersHealthy.Value(); v != 1 {
		t.Fatalf("subdex_cluster_workers_healthy = %v, want 1", v)
	}
}
