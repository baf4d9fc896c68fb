package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/ratingmap"
	"subdex/internal/sessionstore"
	"subdex/internal/workload"
)

// layerMetric is one per-layer metric: its name (the layer's package, a
// dot, what is measured), its unit and which direction is better.
type layerMetric struct{ name, unit, better string }

// perLayerMetrics names every per-layer metric; BENCHMARK.json lists
// exactly these. README.md says how each is taken from outside and which
// end-to-end metric it should move.
var perLayerMetrics = []layerMetric{
	{"dataset.load_s", "s", "lower"},
	{"dataset.heap_mb", "MB", "lower"},
	{"gen.generate_s", "s", "lower"},
	{"query.parse_us", "us", "lower"},
	{"query.materialize_ms", "ms", "lower"},
	{"engine.candidates_us", "us", "lower"},
	{"engine.topmaps_ms", "ms", "lower"},
	{"engine.phase_ms", "ms", "lower"},
	{"engine.finalize_ms", "ms", "lower"},
	{"engine.records_scanned_frac", "ratio", "lower"},
	{"engine.pruned_frac", "ratio", "higher"},
	{"engine.cache_hit_frac", "ratio", "higher"},
	{"engine.cache_evictions_per_step", "count", "lower"},
	{"engine.scaninto_ms", "ms", "lower"},
	{"ratingmap.update_ns_per_record", "ns", "lower"},
	{"ratingmap.wire_encode_us", "us", "lower"},
	{"ratingmap.wire_decode_us", "us", "lower"},
	{"ratingmap.wire_bytes", "B", "lower"},
	{"ratingmap.merge_us", "us", "lower"},
	{"cluster.scanrange_ms", "ms", "lower"},
	{"cluster.vs_local_ratio", "ratio", "lower"},
	{"cluster.rpc_ms", "ms", "lower"},
	{"cluster.worker_scan_ms", "ms", "lower"},
	{"cluster.merge_ms", "ms", "lower"},
	{"cluster.partitions_per_step", "count", "lower"},
	{"cluster.distributed_frac", "ratio", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.lost_partitions", "count", "lower"},
	{"diversity.select_us", "us", "lower"},
	{"core.recommend_ms", "ms", "lower"},
	{"core.rec_candidates", "count", "lower"},
	{"core.rec_op_ms", "ms", "lower"},
	{"core.step_ms", "ms", "lower"},
	{"core.unaccounted_frac", "ratio", "lower"},
	{"core.snapshot_us", "us", "lower"},
	{"core.restore_ms", "ms", "lower"},
	{"server.step_rtt_ms", "ms", "lower"},
	{"server.apply_rtt_ms", "ms", "lower"},
	{"server.create_rtt_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.response_bytes", "B", "lower"},
	{"server.c2_speedup", "ratio", "higher"},
	{"sessionstore.append_ms", "ms", "lower"},
	{"sessionstore.fsyncs_per_op", "count", "lower"},
	{"sessionstore.wal_bytes_per_op", "B", "lower"},
	{"sessionstore.recover_ms_per_session", "ms", "lower"},
	{"obs.overhead_frac", "ratio", "lower"},
	{"proc.gc_cpu_frac", "ratio", "lower"},
	{"proc.gc_cycles_per_kstep", "count", "lower"},
	{"proc.goroutines_end", "count", "lower"},
	{"proc.gomaxprocs", "count", "higher"},
	{"proc.gogc", "%", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.raw_step_p99_ms", "ms", "lower"},
	{"bench.round_spread_frac", "ratio", "lower"},
	{"bench.fail_frac", "ratio", "lower"},
}

// Sample sizes of the traced run: how many composed steps get the
// per-group probes, and how many steps the server / obs / snapshot arms
// replay (the served workload replays its whole plan).
const (
	probeSteps     = 40
	armSteps       = 30
	armGuidedWalks = 1
	storeAppends   = 200
)

// tracedRounds is how many cold repetitions the traced run spends on each
// side of the comparison between black-box steps and composed steps.
const tracedRounds = 2

// strided returns up to max indices spread evenly over [0, n).
func strided(n, max int) []int {
	if n <= 0 {
		return nil
	}
	stride := (n + max - 1) / max
	var out []int
	for i := 0; i < n; i += stride {
		out = append(out, i)
	}
	return out
}

// armPlan is the part of the plan the server, obs and snapshot arms replay.
func armPlan(p *prepared) []walk {
	switch {
	case p.spec.served:
		return p.plan
	case p.spec.sweep:
		var out []walk
		for _, i := range strided(len(p.plan), armSteps) {
			out = append(out, p.plan[i])
		}
		return out
	default:
		n := armGuidedWalks
		if n > len(p.plan) {
			n = len(p.plan)
		}
		return p.plan[:n]
	}
}

// withPlan returns p restricted to a plan and a round count.
func (p *prepared) withPlan(plan []walk, rounds int) *prepared {
	q := *p
	q.plan, q.steps, q.spec.rounds = plan, 0, rounds
	for _, w := range plan {
		q.steps += w.steps
	}
	return &q
}

// values accumulates the per-layer numbers of one traced run.
type values map[string]float64

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perLayer makes the traced run. End-to-end numbers never come from here:
// it exists to say where the time of a step goes, layer by layer, measured
// from the benchmark's side of every layer's public functions.
func perLayer(ctx context.Context, p *prepared, outDir string) (*measured, map[string]metric, error) {
	// The two runtime settings every number here depends on, Go's defaults
	// unless the environment says otherwise.
	v := values{"gen.generate_s": p.generateS, "proc.gomaxprocs": float64(runtime.GOMAXPROCS(0)), "proc.gogc": float64(gogc())}
	if err := probeLoad(p, v); err != nil {
		return nil, nil, err
	}

	// Black box, in process: the plan on the workload's explorer (the served
	// workload's plain twin), clean step latencies by the usual filter.
	engineSide := p
	if p.spec.served {
		engineSide = p.local()
	}
	engineSide = engineSide.withPlan(p.plan, tracedRounds)
	proc0 := readProc()
	m, err := measure(ctx, engineSide)
	if err != nil {
		return nil, nil, fmt.Errorf("black-box rounds: %w", err)
	}
	proc1 := readProc()
	v["proc.peak_rss_mb"] = peakRSSMB()
	v["core.step_ms"] = mean(m.latencies("step"))
	var raw, walls []float64
	totalSteps := 0
	for _, rd := range m.rounds {
		walls = append(walls, rd.wall.Seconds())
		totalSteps += rd.steps
		for _, o := range rd.ops {
			if o.Kind == "step" {
				raw = append(raw, ms(o.Dur))
			}
		}
	}
	v["bench.raw_step_p99_ms"] = percentile(sortedCopy(raw), 0.99)
	v["bench.round_spread_frac"] = maxOf(walls)/minOf(walls) - 1
	v["proc.gc_cpu_frac"] = (proc1.gcCPU - proc0.gcCPU) / (proc1.totalCPU - proc0.totalCPU)
	v["proc.gc_cycles_per_kstep"] = 1000 * float64(proc1.gcCycles-proc0.gcCycles) / float64(totalSteps)

	// Composed: the same operations, every step assembled here from the
	// layers' public functions, one span per call.
	facts, err := composedPasses(ctx, engineSide, m, v, outDir)
	if err != nil {
		return nil, nil, fmt.Errorf("composed pass: %w", err)
	}
	if err := onAllCPUs(func() error { return probeGroups(ctx, p, facts, m, v) }); err != nil {
		return nil, nil, fmt.Errorf("group probes: %w", err)
	}

	// Arms over a sample of the plan: serving, observability, snapshots.
	arm := p.withPlan(armPlan(p), tracedRounds)
	plain, err := measure(ctx, arm.local())
	if err != nil {
		return nil, nil, fmt.Errorf("plain arm: %w", err)
	}
	m.absorb(plain)
	if err := serverArm(ctx, arm, plain, m, v); err != nil {
		return nil, nil, fmt.Errorf("server arm: %w", err)
	}
	if err := obsArm(ctx, arm, plain, m, v); err != nil {
		return nil, nil, fmt.Errorf("obs arm: %w", err)
	}
	snaps, err := snapshotArm(ctx, arm, m, v)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot arm: %w", err)
	}
	if err := storeProbe(arm, snaps, m, v); err != nil {
		return nil, nil, fmt.Errorf("store probe: %w", err)
	}

	v["proc.goroutines_end"] = float64(settledGoroutines())
	v["bench.fail_frac"] = float64(m.failed) / float64(m.attempted)
	out := make(map[string]metric, len(perLayerMetrics))
	for _, lm := range perLayerMetrics {
		x, ok := v[lm.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, fmt.Errorf("per-layer metric %s is %v", lm.name, x)
		}
		out[lm.name] = metric{Value: x, Unit: lm.unit}
	}
	return m, out, nil
}

// onAllCPUs runs f with Go's default GOMAXPROCS and puts back the one P the
// steps are measured on. The probes that ask what parallel hardware allows
// (the distributed scan against the local one, two clients against one)
// have to be allowed to use it.
func onAllCPUs(f func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	return f()
}

// absorb folds another run's correctness verdicts into m, so every arm of
// the traced run counts toward fail_frac and the exit code.
func (m *measured) absorb(o *measured) {
	m.failed += o.failed
	m.attempted += o.attempted
	m.problems = append(m.problems, o.problems...)
}

// probeLoad times dataset.LoadDir on its own and weighs what it leaves on
// the heap.
func probeLoad(p *prepared, v values) error {
	var m0, m1 runtime.MemStats
	best := math.Inf(1)
	for i := 0; i < 2; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		db, err := dataset.LoadDir(p.dataDir, p.spec.data, p.kinds)
		if err != nil {
			return err
		}
		best = math.Min(best, time.Since(start).Seconds())
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(db)
	}
	v["dataset.load_s"] = best
	v["dataset.heap_mb"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20)
	return nil
}

type procStats struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
}

func readProc() procStats {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return procStats{
		gcCPU:    samples[0].Value.Float64(),
		totalCPU: samples[1].Value.Float64(),
		gcCycles: samples[2].Value.Uint64(),
	}
}

// settledGoroutines counts goroutines once everything the run started has
// been closed; transports and servers take a moment to wind down.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20 && n > 1; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// composed is one cold pass of the composer over round 0's operations.
type composed struct {
	spans []span
	steps []stepFacts
	cache engine.CacheStats // the pass's hits, misses and evictions
}

// composeOnce replays ops through the composer on a cold system.
func composeOnce(ctx context.Context, p *prepared, ops []op, m *measured, v values) (*composed, error) {
	e, err := setup(ctx, p, "")
	if err != nil {
		return nil, err
	}
	defer e.close()
	runtime.GC()
	tr := newTracer()
	c := &composer{ex: e.ex, mode: p.spec.mode, tr: tr}
	mismatches, err := c.replay(ctx, ops)
	if err != nil {
		return nil, err
	}
	m.attempted += len(c.steps)
	m.failed += len(mismatches)
	if len(mismatches) > 0 {
		m.problem("%d composed steps displayed other maps than Session.StepCtx (first: op %d)", len(mismatches), mismatches[0])
	}
	if p.spec.clustered {
		if err := clusterScrape(e, v); err != nil {
			return nil, err
		}
	}
	return &composed{spans: tr.spans, steps: c.steps, cache: e.ex.EngineCacheStats()}, nil
}

// cleanSpans applies the estimator to spans: passes run identical
// operations, so span i is the same call in every pass and its clean
// duration is the minimum over passes. Start times are pass 0's.
func cleanSpans(passes []*composed) ([]span, error) {
	clean := append([]span(nil), passes[0].spans...)
	for _, pass := range passes[1:] {
		if len(pass.spans) != len(clean) {
			return nil, fmt.Errorf("composed passes recorded %d and %d spans", len(clean), len(pass.spans))
		}
		for i, s := range pass.spans {
			if s.Name != clean[i].Name || s.Parent != clean[i].Parent {
				return nil, fmt.Errorf("composed passes disagree on span %d (%s / %s)", i+1, clean[i].Name, s.Name)
			}
			if d := s.dur(); d < clean[i].dur() {
				clean[i].EndNS = clean[i].StartNS + int64(d)
			}
		}
	}
	return clean, nil
}

// composedPasses composes every step of round 0's operations, as many cold
// passes as there were black-box rounds, writes pass 0 as the trace file,
// and derives the layer metrics that come from spans and from what the
// layers return (engine.Profile, cache stats).
func composedPasses(ctx context.Context, p *prepared, m *measured, v values, outDir string) ([]stepFacts, error) {
	ops := m.rounds[0].ops
	var stepOps []int
	for i, o := range ops {
		if o.Kind == "step" {
			stepOps = append(stepOps, i)
		}
	}
	var passes []*composed
	for r := 0; r < p.spec.rounds; r++ {
		pass, err := composeOnce(ctx, p, ops, m, v)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(outDir, p.spec.name+".trace.jsonl"), passes[0].spans); err != nil {
		return nil, err
	}
	spans, err := cleanSpans(passes)
	if err != nil {
		return nil, err
	}
	facts := passes[0].steps
	steps := float64(len(facts))

	totals := layerTotals(spans)
	per := func(name string, unit time.Duration) float64 {
		lt := totals[name]
		if lt == nil || lt.count == 0 {
			return 0
		}
		return float64(lt.total) / float64(unit) / float64(lt.count)
	}
	v["query.parse_us"] = per("query.parse", time.Microsecond)
	v["query.materialize_ms"] = per("query.materialize", time.Millisecond)
	v["engine.candidates_us"] = per("engine.candidates", time.Microsecond)
	v["engine.topmaps_ms"] = per("engine.topmaps", time.Millisecond)
	v["diversity.select_us"] = per("diversity.select", time.Microsecond)

	// What the layers return about themselves. Counts repeat exactly from
	// pass to pass; times take the minimum over passes, step by step.
	cleanOf := func(k int, f func(stepFacts) float64) float64 {
		best := math.Inf(1)
		for _, pass := range passes {
			best = math.Min(best, f(pass.steps[k]))
		}
		return best
	}
	var phaseMS, finalizeMS, scanned, groupRecs, pruned, considered, recCount, recMS float64
	var tally clusterTally
	for k, f := range facts {
		pr := f.profile
		phaseMS += cleanOf(k, func(f stepFacts) float64 {
			sum := 0.0
			for _, ph := range f.profile.Phases {
				sum += ph.DurationMS
			}
			return sum
		})
		finalizeMS += cleanOf(k, func(f stepFacts) float64 { return f.profile.FinalizeMS })
		recMS += cleanOf(k, func(f stepFacts) float64 {
			sum := 0.0
			for _, d := range f.recDurs {
				sum += ms(d)
			}
			return sum
		})
		recCount += float64(len(f.recDurs))
		scanned += float64(pr.RecordsScanned)
		groupRecs += float64(pr.GroupRecords)
		pruned += float64(pr.PrunedCI + pr.PrunedMAB)
		considered += float64(pr.Considered)
		tally.add(pr.Cluster)
		tally.mergeMS += cleanOf(k, func(f stepFacts) float64 { return f.profile.ClusterMergeMS })
	}
	v["engine.phase_ms"] = phaseMS / steps
	v["engine.finalize_ms"] = finalizeMS / steps
	v["engine.records_scanned_frac"] = scanned / groupRecs
	v["engine.pruned_frac"] = pruned / considered
	cache := passes[0].cache
	v["engine.cache_hit_frac"] = float64(cache.Hits) / float64(cache.Hits+cache.Misses)
	v["engine.cache_evictions_per_step"] = float64(cache.Evictions) / steps
	// A User-Driven step never calls the Recommendation Builder: there the
	// layer did no work and its metrics read 0.
	v["core.recommend_ms"] = per("core.recommend", time.Millisecond)
	v["core.rec_candidates"] = recCount / steps
	v["core.rec_op_ms"] = recMS / math.Max(1, recCount)
	if p.spec.clustered {
		tally.report(v, steps)
	}

	// How the composed steps compare with the black box, both sides
	// filtered over the same number of cold repetitions: the tracing
	// overhead, and the part of a step no layer's span accounts for.
	var blackBox, whole, children time.Duration
	for _, i := range stepOps {
		blackBox += m.clean[i]
	}
	byParent := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			byParent[s.Parent] += s.dur()
		}
	}
	for _, f := range facts {
		whole += spans[f.rootSpan-1].dur()
		children += byParent[f.rootSpan]
	}
	v["bench.trace_overhead_frac"] = float64(whole)/float64(blackBox) - 1
	v["core.unaccounted_frac"] = float64(blackBox-children) / float64(blackBox)
	return facts, nil
}

// clusterTally sums what the partition profiles of distributed scans say.
type clusterTally struct {
	partitions, remoteParts  int
	rpcMS, scanMS, mergeMS   float64
	localRecords, remoteRecs int
}

// add takes the partitions of one engine call (or one ScanRange call).
func (t *clusterTally) add(parts []engine.PartitionProfile) {
	for _, pp := range parts {
		t.partitions++
		if pp.Worker == "local" {
			t.localRecords += pp.Records
			continue
		}
		t.remoteParts++
		t.remoteRecs += pp.Records
		t.rpcMS += pp.RPCMS
		t.scanMS += pp.ScanMS
	}
}

// report writes the cluster.* metrics that come from partition profiles.
// distributed_frac is the share of scanned records that crossed the wire;
// the rest were folded on the coordinator under LocalThreshold.
func (t *clusterTally) report(v values, steps float64) {
	v["cluster.partitions_per_step"] = float64(t.partitions) / steps
	v["cluster.distributed_frac"] = float64(t.remoteRecs) / math.Max(1, float64(t.remoteRecs+t.localRecords))
	v["cluster.rpc_ms"] = t.rpcMS / math.Max(1, float64(t.remoteParts))
	v["cluster.worker_scan_ms"] = t.scanMS / math.Max(1, float64(t.remoteParts))
	v["cluster.merge_ms"] = t.mergeMS / steps
}

// clusterScrape reads the coordinator's registry as an operator would.
func clusterScrape(e *env, v values) error {
	var buf bytes.Buffer
	if err := e.reg.WritePrometheus(&buf); err != nil {
		return err
	}
	scrape, err := workload.ParseMetrics(&buf)
	if err != nil {
		return err
	}
	v["cluster.retries"] = scrape.Sum("subdex_cluster_retries_total")
	v["cluster.lost_partitions"] = scrape.Sum("subdex_cluster_partitions_lost_total")
	return nil
}

// probeGroups calls the scan-side layers directly on the groups the steps
// displayed: the accumulator kernel, the wire codec, the ordered merge, the
// local sharded scan and the distributed one. Every displayed map is also
// checked against the exact oracle, ratingmap.Builder.Build over the whole
// group.
func probeGroups(ctx context.Context, p *prepared, facts []stepFacts, m *measured, v values) error {
	// A clustered system over the same data serves every probe: its
	// explorer's generator scans locally, its coordinator remotely.
	q := p.local()
	q.spec.clustered = true
	e, err := setup(ctx, q, "")
	if err != nil {
		return err
	}
	defer e.close()
	gen, builder, cfg := e.ex.Gen, e.ex.Gen.Builder, e.ex.Cfg

	wrong := 0
	for _, f := range facts {
		group, err := e.ex.Query.Materialize(f.desc)
		if err != nil {
			return err
		}
		keys := make([]ratingmap.Key, len(f.shown))
		for i, rm := range f.shown {
			keys[i] = rm.Key
		}
		exact := builder.Build(f.desc, group.Records, keys)
		for i, rm := range f.shown {
			if exact[i].Digest() != rm.Digest() {
				wrong++
			}
		}
	}
	m.check(wrong == 0, "%d displayed maps differ from Builder.Build over their whole group", wrong)

	var updateNS, records, encUS, decUS, wireB, mergeUS, scanIntoMS, scanRangeMS float64
	var tally clusterTally
	sample := strided(len(facts), probeSteps)
	for _, i := range sample {
		f := facts[i]
		group, err := e.ex.Query.Materialize(f.desc)
		if err != nil {
			return err
		}
		recs := group.Records
		acc := builder.NewAccumulator(f.desc, f.cands)
		start := time.Now()
		acc.Update(recs)
		updateNS += float64(time.Since(start))
		records += float64(len(recs))

		start = time.Now()
		frame := acc.EncodeWire()
		encUS += us(time.Since(start))
		wireB += float64(len(frame))
		start = time.Now()
		if _, err := builder.DecodeWire(f.desc, frame); err != nil {
			return fmt.Errorf("decoding %q: %w", f.desc, err)
		}
		decUS += us(time.Since(start))

		lo, hi := builder.NewAccumulator(f.desc, f.cands), builder.NewAccumulator(f.desc, f.cands)
		lo.Update(recs[:len(recs)/2])
		hi.Update(recs[len(recs)/2:])
		start = time.Now()
		lo.Merge(hi)
		mergeUS += us(time.Since(start))

		local := builder.NewAccumulator(f.desc, f.cands)
		start = time.Now()
		gen.ScanInto(local, recs, cfg.Engine.Workers, cfg.Engine.ShardMinRecords)
		scanIntoMS += ms(time.Since(start))

		// The distributed scan of the same range: partials from the
		// workers, merged in partition order as the engine merges them.
		merged := builder.NewAccumulator(f.desc, f.cands)
		start = time.Now()
		rs, err := e.coord.ScanRange(ctx, group, f.cands, 0, len(recs))
		if err != nil {
			return err
		}
		mergeStart := time.Now()
		for _, part := range rs.Partials {
			merged.Merge(part)
		}
		scanRangeMS += ms(time.Since(start))
		tally.mergeMS += ms(time.Since(mergeStart))
		tally.add(rs.Profiles)
	}
	n := float64(len(sample))
	v["ratingmap.update_ns_per_record"] = updateNS / math.Max(1, records)
	v["ratingmap.wire_encode_us"] = encUS / n
	v["ratingmap.wire_decode_us"] = decUS / n
	v["ratingmap.wire_bytes"] = wireB / n
	v["ratingmap.merge_us"] = mergeUS / n
	v["engine.scaninto_ms"] = scanIntoMS / n
	v["cluster.scanrange_ms"] = scanRangeMS / n
	v["cluster.vs_local_ratio"] = scanRangeMS / scanIntoMS
	if !p.spec.clustered {
		// The workload itself never crossed the wire, so the cluster layer
		// is described by these whole-group ScanRange calls.
		tally.report(v, n)
		if err := clusterScrape(e, v); err != nil {
			return err
		}
	}
	return nil
}

// kindMean averages the clean latencies of one kind of operation, in ms.
func (m *measured) kindMean(kind string) float64 { return mean(m.latencies(kind)) }

// serverArm replays the arm plan over HTTP against a durable server and
// sets the round trips against the same operations in process.
func serverArm(ctx context.Context, arm *prepared, plain, m *measured, v values) error {
	q := *arm
	q.spec.served, q.spec.clustered = true, false
	if q.walSeed == "" {
		q.walSeed = filepath.Join(q.dir, "wal-empty")
		if err := os.MkdirAll(q.walSeed, 0o755); err != nil {
			return err
		}
	}
	var bodies []float64
	var mu sync.Mutex
	q.responseBytes = func(n int64) {
		mu.Lock()
		bodies = append(bodies, float64(n))
		mu.Unlock()
	}
	served, err := measure(ctx, &q)
	if err != nil {
		return err
	}
	m.absorb(served)
	v["server.step_rtt_ms"] = served.kindMean("step")
	v["server.apply_rtt_ms"] = served.kindMean("apply")
	v["server.create_rtt_ms"] = served.kindMean("create")
	v["server.overhead_ms"] = served.kindMean("step") - plain.kindMean("step")
	v["server.response_bytes"] = mean(bodies)

	// Two closed-loop clients on two connections against one, both on all
	// CPUs: what the session lock, the WAL and a second core allow.
	var best [2]float64
	err = onAllCPUs(func() error {
		for rep := 0; rep < 2; rep++ {
			for c := range best {
				rate, err := clientsRate(ctx, &q, c+1, rep)
				if err != nil {
					return err
				}
				best[c] = math.Max(best[c], rate)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["server.c2_speedup"] = best[1] / best[0]
	return nil
}

// clientsRate runs the plan's walks on so many concurrent closed-loop
// clients against a cold server and returns raw steps per second.
func clientsRate(ctx context.Context, p *prepared, clients, rep int) (float64, error) {
	walDir := filepath.Join(p.dir, fmt.Sprintf("wal-c%d-%d", clients, rep))
	if err := copyDir(p.walSeed, walDir); err != nil {
		return 0, err
	}
	e, err := setup(ctx, p, walDir)
	if err != nil {
		return 0, err
	}
	defer e.close()
	recs := make([]*recorder, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range recs {
		recs[c] = &recorder{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(p.plan); i += clients {
				if err := runWalk(ctx, e, p.spec, i, p.plan[i], recs[c]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	steps := 0
	for c, rec := range recs {
		if errs[c] != nil {
			return 0, errs[c]
		}
		if n := rec.bad(); n > 0 {
			return 0, fmt.Errorf("%d failed operations with %d clients", n, clients)
		}
		for _, o := range rec.ops {
			if o.Kind == "step" {
				steps++
			}
		}
	}
	return float64(steps) / wall.Seconds(), nil
}

// obsArm runs the arm plan with Explorer.Instrument and a span sink
// installed and compares its clean step time with the plain arm's.
func obsArm(ctx context.Context, arm *prepared, plain, m *measured, v values) error {
	q := arm.local()
	q.instrument = true
	on, err := measure(ctx, q)
	if err != nil {
		return err
	}
	m.absorb(on)
	m.check(reproduces(plain.rounds[0].ops, on.rounds[0].ops), "instrumented steps displayed other maps than plain ones")
	v["obs.overhead_frac"] = on.kindMean("step")/plain.kindMean("step") - 1
	return nil
}

// snapshotArm snapshots every session of the arm plan when its walk ends
// and restores it through the engine. It returns the snapshots.
func snapshotArm(ctx context.Context, arm *prepared, m *measured, v values) ([]*core.SessionSnapshot, error) {
	e, err := setup(ctx, arm.local(), "")
	if err != nil {
		return nil, err
	}
	defer e.close()
	var snaps []*core.SessionSnapshot
	var snapUS, restoreMS []float64
	var failed error
	rec := &recorder{onClose: func(c workload.Client) {
		ic, ok := c.(*workload.InprocClient)
		if !ok || failed != nil {
			return
		}
		start := time.Now()
		snap := ic.Session().Snapshot()
		snapUS = append(snapUS, us(time.Since(start)))
		snaps = append(snaps, snap)
		start = time.Now()
		if _, err := core.RestoreSession(ctx, e.ex, snap); err != nil {
			failed = err
			return
		}
		restoreMS = append(restoreMS, ms(time.Since(start)))
	}}
	for i, w := range arm.plan {
		if err := runWalk(ctx, e, arm.spec, i, w, rec); err != nil {
			return nil, err
		}
	}
	m.check(failed == nil, "restoring a snapshot: %v", failed)
	v["core.snapshot_us"] = mean(snapUS)
	v["core.restore_ms"] = mean(restoreMS)
	return snaps, nil
}

// storeProbe appends the logs of real sessions to a scratch FileStore
// (enough of them for storeAppends appends), then times recovery: of the
// seeded WAL when the workload has one, else of the scratch store it just
// wrote. A store error is a failed check, recorded where it occurs.
func storeProbe(arm *prepared, snaps []*core.SessionSnapshot, m *measured, v values) error {
	dir := filepath.Join(arm.dir, "wal-probe")
	store, err := sessionstore.Open(dir)
	if err != nil {
		return err
	}
	var appendMS []float64
	var storeErr error
	for id, snap := range snaps {
		if len(appendMS) >= storeAppends || storeErr != nil {
			snaps = snaps[:id]
			break
		}
		base := *snap
		base.Ops, base.Final = nil, nil
		if storeErr = store.Create(id+1, &base); storeErr != nil { //subdex:walcheck a scratch store with no server behind it and no counter; the error fails the run through m.check below
			continue
		}
		for seq, o := range snap.Ops {
			start := time.Now()
			if storeErr = store.AppendOp(id+1, seq, o); storeErr != nil { //subdex:walcheck as Create above: the error fails the run through m.check below
				break
			}
			appendMS = append(appendMS, ms(time.Since(start)))
		}
	}
	m.check(storeErr == nil, "scratch store: %v", storeErr)
	stats := store.Stats()
	if err := store.Close(); err != nil {
		return err
	}
	info, err := os.Stat(filepath.Join(dir, sessionstore.WALFileName))
	if err != nil {
		return err
	}
	appends := math.Max(1, float64(stats.Appends))
	v["sessionstore.append_ms"] = median(appendMS)
	v["sessionstore.fsyncs_per_op"] = float64(stats.Fsyncs) / appends
	v["sessionstore.wal_bytes_per_op"] = float64(info.Size()) / appends

	recoverDir, want := dir, len(snaps)
	if arm.spec.served {
		recoverDir, want = filepath.Join(arm.dir, "wal-recover"), arm.spec.seedSessions
		if err := copyDir(arm.walSeed, recoverDir); err != nil {
			return err
		}
	}
	start := time.Now()
	reopened, err := sessionstore.Open(recoverDir)
	if err != nil {
		return err
	}
	took := time.Since(start)
	got := reopened.Recovery()
	if err := reopened.Close(); err != nil {
		return err
	}
	m.check(got.Sessions == want && !got.Truncated, "store recovered %d of %d sessions (truncated: %v)", got.Sessions, want, got.Truncated)
	v["sessionstore.recover_ms_per_session"] = ms(took) / math.Max(1, float64(got.Sessions))
	return nil
}
