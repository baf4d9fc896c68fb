// Cluster coordinator: the engine.RangeScanner that fans one record
// range out across worker processes and merges the partial accumulators
// back in deterministic partition order.
//
// Exactness comes from three facts the rest of the repo already proved:
// partitions are contiguous subranges covering [lo, hi) in order
// (the same arithmetic as the engine's phase strides); workers fold the
// exact record positions the coordinator ships (no selection
// re-interpretation); and Accumulator.Merge is associative and
// bit-exact on integer histograms (FuzzMerge), so prefix-merging the
// partition frames equals one sequential scan of the range. The cluster
// differential harness and the sdeload golden-trace soak assert the
// composition end to end.
//
// Failure handling preserves the PR 2 anytime contract: a partition that
// exhausts its bounded retries truncates the scan to the partitions
// before it — a consistent record prefix — and the engine degrades
// exactly as it does for a deadline (Result.Degraded, RecordsProcessed
// = merged prefix, Profile.DegradedReason = "partition_lost").

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// maxFrameBytes bounds one worker response frame.
const maxFrameBytes = 1 << 30

// defaultLocalThreshold is the record count below which a scan is folded
// locally rather than distributed (CoordinatorConfig.LocalThreshold).
const defaultLocalThreshold = 2048

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Workers are the worker base URLs (e.g. "http://10.0.0.7:9201").
	// At least one is required.
	Workers []string
	// Partitions is how many partitions each scanned range is split
	// into (clamped to the range length; default len(Workers)).
	Partitions int
	// PartitionTimeout bounds one RPC attempt (default 30s).
	PartitionTimeout time.Duration
	// Retries is how many additional attempts a failed partition gets,
	// each on the next worker in rotation (default len(Workers)-1).
	// Negative means zero: first failure loses the partition.
	Retries int
	// LocalThreshold is the range length below which the coordinator
	// folds the records on its own dataset copy instead of paying a
	// network round trip — a pure scheduling choice, bit-identical to
	// the distributed path by the same merge argument, that keeps the
	// engine's many small sampled scans (recommendation evaluation,
	// late pruning phases) cheap while whole-group scans still fan out.
	// 0 picks the default (2048 records); negative distributes
	// everything (the differential and golden harnesses do this to force
	// every scan through the workers).
	LocalThreshold int
	// HealthInterval paces the background worker health probe (default
	// 5s; negative disables the loop).
	HealthInterval time.Duration
	// Client overrides the HTTP client (default: a dedicated client).
	Client *http.Client
	// Registry receives subdex_cluster_* coordinator instruments.
	Registry *obs.Registry
}

// Coordinator implements engine.RangeScanner over a set of workers.
// Safe for concurrent use by all sessions of an explorer.
type Coordinator struct {
	cfg CoordinatorConfig
	// local folds sub-threshold ranges on the coordinator's own dataset
	// copy (see CoordinatorConfig.LocalThreshold).
	local   *engine.Generator
	builder ratingmap.Builder
	client  *http.Client
	m       *Metrics

	// fp is the engine-config fingerprint every RPC carries, bound by
	// core.NewExplorer via BindFingerprint. Atomic: the health loop and
	// scan fan-out read it concurrently with the bind.
	fp atomic.Value // string

	// healthy[i] is worker i's last probe verdict; scan attempts prefer
	// healthy workers but never refuse an unhealthy one outright (the
	// probe may simply not have run yet).
	healthy []atomic.Bool

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewCoordinator builds a coordinator over the frozen dataset db (the
// same dataset every worker holds) and starts the health probe loop.
// ctx is the root for background probes; cancel it or call Close to
// stop the loop.
func NewCoordinator(ctx context.Context, db *dataset.DB, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one worker URL")
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = len(cfg.Workers)
	}
	if cfg.PartitionTimeout <= 0 {
		cfg.PartitionTimeout = 30 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = len(cfg.Workers) - 1
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 5 * time.Second
	}
	if cfg.LocalThreshold == 0 {
		cfg.LocalThreshold = defaultLocalThreshold
	} else if cfg.LocalThreshold < 0 {
		cfg.LocalThreshold = 0
	}
	c := &Coordinator{
		cfg:     cfg,
		local:   engine.NewGenerator(db),
		builder: ratingmap.Builder{DB: db},
		client:  cfg.Client,
		m:       NewMetrics(cfg.Registry),
		healthy: make([]atomic.Bool, len(cfg.Workers)),
		stop:    make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	c.fp.Store("")
	for i := range c.healthy {
		c.healthy[i].Store(true) // optimistic until the first probe says otherwise
	}
	c.m.setWorkersHealthy(len(cfg.Workers))
	if cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop(ctx)
	}
	return c, nil
}

// BindFingerprint arms the mixed-version guard: every scan RPC carries
// fp and workers answering with a different fingerprint are treated as
// failed attempts. core.NewExplorer calls this with the coordinator
// explorer's fingerprint; ScanRange refuses to run unbound.
func (c *Coordinator) BindFingerprint(fp string) { c.fp.Store(fp) }

func (c *Coordinator) fingerprint() string {
	s, _ := c.fp.Load().(string)
	return s
}

// Close stops the health loop and waits for it. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Workers reports the configured worker URLs.
func (c *Coordinator) Workers() []string { return append([]string(nil), c.cfg.Workers...) }

// HealthyWorkers reports how many workers passed the last probe.
func (c *Coordinator) HealthyWorkers() int {
	n := 0
	for i := range c.healthy {
		if c.healthy[i].Load() {
			n++
		}
	}
	return n
}

// partResult is one partition's outcome inside a ScanRange fan-out.
type partResult struct {
	acc  *ratingmap.Accumulator
	prof engine.PartitionProfile
	ok   bool
}

// ScanRange implements engine.RangeScanner: it splits [lo, hi) into
// contiguous partitions, scans each on a worker (bounded retries across
// the rotation, per-attempt timeout), and returns the decoded partials
// of the longest all-successful partition prefix, in partition order.
func (c *Coordinator) ScanRange(ctx context.Context, group *query.RatingGroup, keys []ratingmap.Key,
	lo, hi int) (*engine.RangeScan, error) {
	fp := c.fingerprint()
	if fp == "" {
		return nil, errors.New("cluster: coordinator fingerprint unbound (build the explorer with Config.Scanner)")
	}
	if lo < 0 || hi > len(group.Records) || lo > hi {
		return nil, fmt.Errorf("cluster: scan range [%d:%d) outside group of %d records", lo, hi, len(group.Records))
	}
	if lo == hi {
		return &engine.RangeScan{}, nil
	}
	if n := hi - lo; n <= c.cfg.LocalThreshold {
		acc := c.builder.NewAccumulator(group.Desc, keys)
		start := time.Now()
		c.local.ScanInto(acc, group.Records[lo:hi], runtime.NumCPU(), 0) // the worker-side defaults
		return &engine.RangeScan{
			Partials:   []*ratingmap.Accumulator{acc},
			Partitions: 1,
			Records:    n,
			Profiles: []engine.PartitionProfile{{
				Worker: "local", Records: n, Attempts: 1,
				ScanMS: float64(time.Since(start).Microseconds()) / 1000,
			}},
		}, nil
	}
	ctx, span := obs.StartSpan(ctx, "cluster.scanrange")
	defer span.End()
	parts := c.cfg.Partitions
	if parts > hi-lo {
		parts = hi - lo // more partitions than records: one record per partition
	}
	span.SetAttr("records", hi-lo)
	span.SetAttr("partitions", parts)

	results := make([]partResult, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		plo := lo + p*(hi-lo)/parts
		phi := lo + (p+1)*(hi-lo)/parts
		wg.Add(1)
		go func(p, plo, phi int) {
			defer wg.Done()
			results[p] = c.scanPartition(ctx, fp, group, keys, p, plo, phi)
		}(p, plo, phi)
	}
	wg.Wait()

	rs := &engine.RangeScan{Partitions: parts}
	merged := parts
	for p := 0; p < parts; p++ {
		rs.Profiles = append(rs.Profiles, results[p].prof)
		if !results[p].ok && p < merged {
			merged = p
		}
	}
	for p := 0; p < merged; p++ {
		rs.Partials = append(rs.Partials, results[p].acc)
		rs.Records += results[p].prof.Records
	}
	rs.Lost = parts - merged
	c.m.addPartitions(parts, rs.Lost)
	span.SetAttr("lost", rs.Lost)
	return rs, nil
}

// attemptOrder lists worker indices for a partition's attempts: rotation
// anchored at the partition index (stable affinity → warm worker-side
// paths), healthy workers first.
func (c *Coordinator) attemptOrder(p int) []int {
	n := len(c.cfg.Workers)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if w := (p + i) % n; c.healthy[w].Load() {
			order = append(order, w)
		}
	}
	for i := 0; i < n; i++ {
		if w := (p + i) % n; !c.healthy[w].Load() {
			order = append(order, w)
		}
	}
	return order
}

// scanPartition runs one partition's attempt loop.
func (c *Coordinator) scanPartition(ctx context.Context, fp string, group *query.RatingGroup,
	keys []ratingmap.Key, p, lo, hi int) partResult {
	res := partResult{prof: engine.PartitionProfile{Partition: p, Records: hi - lo}}
	body, err := json.Marshal(ScanRequest{
		Version:     ratingmap.WireVersion,
		Fingerprint: fp,
		Keys:        keys,
		Records:     encodeRecords(group.Records[lo:hi]),
		Count:       hi - lo,
		Partition:   p,
	})
	if err != nil { // unreachable: the request is plain data
		res.prof.Lost = true
		return res
	}
	order := c.attemptOrder(p)
	attempts := c.cfg.Retries + 1
	if attempts > len(order) {
		attempts = len(order)
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			break
		}
		if attempt > 0 {
			c.m.addRetry()
		}
		worker := c.cfg.Workers[order[attempt]]
		res.prof.Worker = worker
		res.prof.Attempts = attempt + 1
		acc, scanMS, rpcDur, err := c.scanOnce(ctx, worker, fp, group.Desc, keys, body)
		c.m.addRPC(rpcDur, err != nil)
		if err == nil {
			res.acc = acc
			res.prof.ScanMS = scanMS
			res.prof.RPCMS = float64(rpcDur.Microseconds()) / 1000
			res.ok = true
			return res
		}
	}
	res.prof.Lost = true
	return res
}

// scanOnce performs one RPC attempt against one worker and decodes the
// returned frame.
func (c *Coordinator) scanOnce(ctx context.Context, worker, fp string, desc query.Description,
	keys []ratingmap.Key, body []byte) (acc *ratingmap.Accumulator, scanMS float64, dur time.Duration, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.PartitionTimeout)
	defer cancel()
	start := time.Now()
	defer func() { dur = time.Since(start) }()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, worker+scanPath, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cluster: building scan request for %s: %w", worker, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tid := obs.TraceIDFrom(ctx); tid.Valid() {
		req.Header.Set("traceparent", obs.Traceparent(tid, obs.NewSpanID()))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cluster: scan RPC to %s: %w", worker, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode == http.StatusConflict {
			c.m.addFingerprintMismatch()
		}
		return nil, 0, 0, fmt.Errorf("cluster: worker %s answered %d: %s", worker, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if got := resp.Header.Get(fingerprintHeader); got != "" && got != fp {
		c.m.addFingerprintMismatch()
		return nil, 0, 0, fmt.Errorf("cluster: worker %s fingerprint %s, want %s", worker, got, fp)
	}
	frame, err := io.ReadAll(io.LimitReader(resp.Body, maxFrameBytes))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cluster: reading frame from %s: %w", worker, err)
	}
	acc, err = c.builder.DecodeWire(desc, frame)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cluster: frame from %s: %w", worker, err)
	}
	// The decoded key set must be exactly what was requested: a worker
	// answering for different candidates would merge silently (Merge
	// deep-copies unknown keys), so refuse it here.
	if len(acc.Keys()) != len(keys) {
		return nil, 0, 0, fmt.Errorf("cluster: worker %s returned %d keys, want %d", worker, len(acc.Keys()), len(keys))
	}
	for i, k := range keys {
		if acc.Keys()[i] != k {
			return nil, 0, 0, fmt.Errorf("cluster: worker %s key %d is %v, want %v", worker, i, acc.Keys()[i], k)
		}
	}
	scanMS, _ = strconv.ParseFloat(resp.Header.Get(scanMSHeader), 64)
	return acc, scanMS, 0, nil
}

// healthLoop probes every worker on a ticker until Close (or ctx
// cancellation) stops it.
func (c *Coordinator) healthLoop(ctx context.Context) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	c.probeAll(ctx)
	for {
		select {
		case <-c.stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			c.probeAll(ctx)
		}
	}
}

// probeAll refreshes every worker's health verdict and the gauge.
func (c *Coordinator) probeAll(ctx context.Context) {
	healthy := 0
	for i, w := range c.cfg.Workers {
		ok := c.probe(ctx, w)
		c.healthy[i].Store(ok)
		if ok {
			healthy++
		}
	}
	c.m.setWorkersHealthy(healthy)
}

// probe checks one worker's /healthz, including the fingerprint when
// one is bound: a live worker running different engine config is as
// unusable as a dead one.
func (c *Coordinator) probe(ctx context.Context, worker string) bool {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.PartitionTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+healthPath, nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var h healthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&h); err != nil {
		return false
	}
	if fp := c.fingerprint(); fp != "" && h.Fingerprint != fp {
		c.m.addFingerprintMismatch()
		return false
	}
	return true
}
