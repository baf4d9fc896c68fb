// The differential soak (-soak-kill, -cluster-soak, or both): sdeload
// re-executes itself as child processes and runs the same seeded
// population twice. Phase A drives a plain child server, whose golden
// traces are the ground truth. Phase B drives a child server carrying
// every variant feature the flags ask for:
//
//   - -soak-kill: a durable session store; the child is SIGKILLed at
//     -kill-frac of the step budget and restarted on the same address and
//     store, and the retrying clients ride the outage. This exercises the
//     exactly-once chain — log-before-respond on the server, op-id dedup
//     on retry, deterministic WAL replay on boot.
//   - -cluster-soak: engine scans partitioned by a cluster coordinator
//     over -cluster-nodes worker children. Distribution is a scheduling
//     choice; the answers must not move.
//
// The features are orthogonal, so passing both soaks their product: a
// coordinator-backed durable server killed and recovered mid-run. Both
// children are built by daemon.NewServer — the wiring subdexd ships — and
// the checks follow from the features present (soakChecks).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"subdex/internal/cluster"
	"subdex/internal/core"
	"subdex/internal/daemon"
	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
	"subdex/internal/workload"
)

// soakRetry is the transport retry policy soak clients run with: enough
// doubling-backoff attempts to ride a child restart (dataset rebuild +
// WAL replay) without giving up.
var soakRetry = workload.Retry{Attempts: 14, Backoff: 100 * time.Millisecond}

// childEnv carries a childSpec, as JSON, to a re-executed sdeload; main
// (and the test binary's TestMain) serve as that child instead of
// parsing flags.
const childEnv = "SDELOAD_CHILD"

// childSpec is what one child process is: a scan worker, or a server
// with whatever of SessionDir and Workers the phase gives it.
type childSpec struct {
	Worker     bool     `json:"worker,omitempty"`
	Addr       string   `json:"addr"`
	Generate   string   `json:"generate"`
	Scale      float64  `json:"scale"`
	Seed       int64    `json:"seed"`
	SessionDir string   `json:"session_dir,omitempty"`
	Workers    []string `json:"workers,omitempty"`
}

// childMain turns this process into the soak child childEnv describes, if
// it was spawned as one, and never returns then. The parent detects
// readiness by polling /metrics; the child's only contract is the address
// it was given. It exits when its stdin closes, so a parent that dies
// without reaping leaves no orphan.
func childMain() {
	raw, ok := os.LookupEnv(childEnv)
	if !ok {
		return
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	if err := serveChild(context.Background(), raw); err != nil {
		fmt.Fprintf(os.Stderr, "sdeload child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serveChild builds what spec describes and serves it until killed.
func serveChild(ctx context.Context, raw string) error {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return fmt.Errorf("%s: %w", childEnv, err)
	}
	db, err := buildDataset(spec.Generate, spec.Scale, spec.Seed)
	if err != nil {
		return err
	}
	var h http.Handler
	if spec.Worker {
		ex, err := core.NewExplorer(db, core.DefaultConfig())
		if err != nil {
			return err
		}
		h = cluster.NewWorker(ex, cluster.WorkerOptions{Registry: obs.NewRegistry()}).Handler()
	} else {
		srv, err := daemon.NewServer(ctx, db, daemon.ServerConfig{
			Core:       core.DefaultConfig(),
			SessionDir: spec.SessionDir,
			Cluster:    cluster.CoordinatorConfig{Workers: spec.Workers},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		h = srv.Handler()
	}
	return daemon.Serve(ctx, "sdeload child", spec.Addr, "", h, time.Second)
}

// child is one spawned process, what it was told to be, and the base
// URL it serves.
type child struct {
	cmd  *exec.Cmd
	spec childSpec
	base string
}

// kill SIGKILLs the child and reaps it; a second kill is a no-op.
func (c *child) kill() {
	if c.cmd.ProcessState != nil {
		return
	}
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// spawn re-executes this binary as the child spec describes — on a fresh
// loopback port, reserved by binding and releasing it, unless spec names
// the address a predecessor used — and waits for it to serve (a restarted
// durable server replays its WAL through the engine before serving, so
// this also covers recovery time).
func spawn(ctx context.Context, spec childSpec) (*child, error) {
	if spec.Addr == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		spec.Addr = ln.Addr().String()
		ln.Close()
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, _ := json.Marshal(spec) // strings, numbers and a bool: cannot fail
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if _, err := cmd.StdinPipe(); err != nil { // held open until this process exits: the child's lifeline
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, spec: spec, base: "http://" + spec.Addr}
	if err := waitReady(ctx, c.base); err != nil {
		c.kill()
		return nil, fmt.Errorf("child on %s never became ready: %w", spec.Addr, err)
	}
	return c, nil
}

// waitReady polls the child's /metrics until it answers.
func waitReady(ctx context.Context, base string) error {
	err := errors.New("not attempted")
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline) && ctx.Err() == nil; time.Sleep(50 * time.Millisecond) {
		if _, err = workload.FetchMetrics(ctx, nil, base+"/metrics"); err == nil {
			return nil
		}
	}
	return err
}

// outcome is one finished population walk.
type outcome struct {
	res *workload.Result
	err error
}

// soakFacts is what a differential run observed beyond its step counts;
// soakChecks turns the facts the variant's features make meaningful into
// verdict rows.
type soakFacts struct {
	// goldenDivergences counts the places phase B's recorded walks differ
	// from phase A's.
	goldenDivergences int
	// sessionsRecovered and replayRecords are the restarted lifetime's
	// recovery counters.
	sessionsRecovered, replayRecords float64
	// digestsIdentical: the whole-database TopMaps digest of a distributed
	// scan matched a single-thread local scan's. partitionsLost sums
	// subdex_cluster_partitions_lost_total over phase B's lifetimes.
	digestsIdentical bool
	partitionsLost   float64
}

// soakChecks derives the soak's objectives from the features phase B
// carried: the answers never move; a killed durable server must actually
// have recovered by WAL replay; a healthy cluster must scan
// digest-identically and lose nothing (so anytime degradation never
// triggered).
func soakChecks(kill, clustered bool, f soakFacts) []check {
	checks := []check{atMost("golden_divergences", 0, float64(f.goldenDivergences))}
	if kill {
		checks = append(checks,
			atLeast("sessions_recovered_min", 1, f.sessionsRecovered),
			atLeast("wal_replay_records_min", 1, f.replayRecords))
	}
	if clustered {
		identical := 0.0
		if f.digestsIdentical {
			identical = 1
		}
		checks = append(checks,
			atLeast("digests_identical", 1, identical),
			atMost("partitions_lost", 0, f.partitionsLost))
	}
	return checks
}

// runSoak orchestrates the two phases and the verdict.
func runSoak(ctx context.Context, o options) error {
	switch {
	case o.target != "":
		return usageError{"a soak self-hosts its servers and cannot apply to an external -target"}
	case o.duration > 0:
		return usageError{"a soak needs a fixed step budget for golden comparison; use -steps, not -duration"}
	case o.faultEvery > 0 || o.stepTimeout > 0:
		// Degraded and fault-cut steps depend on wall-clock phase timing,
		// which would make the two phases legitimately diverge — the soak
		// proves recovery and distribution, not anytime behavior.
		return usageError{"a soak requires deterministic steps; drop -fault-every and -step-timeout"}
	case o.clusterSoak && o.clusterNodes < 1:
		return usageError{"-cluster-nodes must be at least 1"}
	}
	ctx, cancel := context.WithCancel(ctx) // an early return stops phase B's walk
	defer cancel()
	cfg, err := workloadConfig(o)
	if err != nil {
		return err
	}
	cfg.Record = true
	if cfg.StepsPerUser <= 0 {
		cfg.StepsPerUser = 8
	}
	var features []string
	if o.soakKill {
		features = append(features, "soak-kill")
	}
	if o.clusterSoak {
		features = append(features, "cluster-soak")
	}
	mode := strings.Join(features, "+")

	var kids []*child
	defer func() {
		for _, c := range kids {
			c.kill()
		}
	}()
	// start spawns one child over the run's dataset.
	start := func(spec childSpec) (*child, error) {
		spec.Generate, spec.Scale, spec.Seed = o.generate, o.scale, o.seed
		c, err := spawn(ctx, spec)
		if err == nil {
			kids = append(kids, c)
		}
		return c, err
	}
	walk := func(c *child) (*workload.Result, error) {
		res, err := workload.Run(ctx, cfg,
			workload.HTTPRetryFactory(c.base, nil, cfg.Mode, o.predicate, soakRetry))
		if err == nil {
			err = terminalFailure(res)
		}
		return res, err
	}

	// Phase A: the plain server — no store, no workers.
	fmt.Println("soak phase A: plain server")
	a, err := start(childSpec{})
	if err != nil {
		return err
	}
	resA, err := walk(a)
	a.kill()
	if err != nil {
		return fmt.Errorf("phase A: %w", err)
	}

	// Phase B: the variant server.
	var variant childSpec
	if o.clusterSoak {
		for i := 0; i < o.clusterNodes; i++ {
			w, err := start(childSpec{Worker: true})
			if err != nil {
				return err
			}
			variant.Workers = append(variant.Workers, w.base)
		}
	}
	if o.soakKill {
		if variant.SessionDir = o.sessionDir; variant.SessionDir == "" {
			if variant.SessionDir, err = os.MkdirTemp("", "sdeload-soak-*"); err != nil {
				return err
			}
		}
	}
	fmt.Printf("soak phase B: %s server (session-dir %q, %d workers)\n", mode, variant.SessionDir, len(variant.Workers))
	b, err := start(variant)
	if err != nil {
		return err
	}
	done := make(chan outcome, 1)
	go func(c *child) {
		res, err := walk(c)
		done <- outcome{res, err}
	}(b)
	var facts soakFacts
	if o.soakKill {
		killAt := max(int(o.killFrac*float64(cfg.Users*cfg.StepsPerUser)), 1)
		preKill, err := awaitSteps(ctx, b.base, killAt, done)
		if err != nil {
			return err
		}
		fmt.Printf("soak: SIGKILL after %.0f steps, restarting on %s\n", preKill.Sum("subdex_steps_total"), b.spec.Addr)
		facts.partitionsLost = preKill.Sum("subdex_cluster_partitions_lost_total")
		b.kill()
		// Same address: the retrying clients reconnect to the recovered
		// server without reconfiguration, exactly like a production
		// restart behind a stable endpoint.
		if b, err = start(b.spec); err != nil {
			return err
		}
	}
	out := <-done
	if out.err != nil {
		return fmt.Errorf("phase B: %w (session-dir kept at %q)", out.err, variant.SessionDir)
	}
	final, err := workload.FetchMetrics(ctx, nil, b.base+"/metrics")
	b.kill()
	if err != nil {
		return fmt.Errorf("phase B scrape: %w", err)
	}

	facts.sessionsRecovered = final.Sum("subdex_sessions_recovered_total")
	facts.replayRecords = final.Sum("subdex_wal_replay_records_total")
	facts.partitionsLost += final.Sum("subdex_cluster_partitions_lost_total")
	if o.clusterSoak {
		db, err := buildDataset(o.generate, o.scale, o.seed)
		if err != nil {
			return err
		}
		// A scan that cannot complete is a failed digests_identical row,
		// not a run without a verdict.
		if facts.digestsIdentical, err = clusterScanDigests(ctx, db, variant.Workers); err != nil {
			fmt.Fprintln(os.Stderr, "sdeload: whole-database scan:", err)
		}
	}
	if err := concludeSoak(o, mode, resA, out.res, facts); err != nil {
		if variant.SessionDir != "" {
			err = fmt.Errorf("%w (session-dir kept at %s)", err, variant.SessionDir)
		}
		return err
	}
	if o.soakKill && o.sessionDir == "" {
		os.RemoveAll(variant.SessionDir) // temp dir, and every check passed
	}
	return nil
}

// concludeSoak byte-compares the two phases' golden traces and closes the
// run on the verdict: phase B's counts, the -slo-* objectives, and the
// rows soakChecks derives.
func concludeSoak(o options, mode string, resA, resB *workload.Result, facts soakFacts) error {
	divergences := workload.DiffRuns(resA, resB)
	for _, d := range divergences[:min(len(divergences), 8)] {
		fmt.Fprintln(os.Stderr, "golden divergence:", d)
	}
	facts.goldenDivergences = len(divergences)
	rep := report(o, mode, resB)
	rep.Checks = append(rep.Checks, soakChecks(o.soakKill, o.clusterSoak, facts)...)
	return finish(os.Stdout, o, rep, resB, nil)
}

// awaitSteps polls the child's /metrics until the population has executed
// at least want steps (per subdex_steps_total) and returns that last
// scrape of the lifetime about to be killed. A walk that ends first is a
// configuration problem, not a pass: nothing was killed.
func awaitSteps(ctx context.Context, base string, want int, done <-chan outcome) (*workload.Scrape, error) {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case out := <-done:
			if out.err != nil {
				return nil, fmt.Errorf("phase B: %w", out.err)
			}
			return nil, usageError{fmt.Sprintf("workload finished before the kill threshold (%d steps); raise -steps or lower -kill-frac", want)}
		case <-tick.C:
		}
		// A failed scrape is transient: the child may still be binding.
		if s, err := workload.FetchMetrics(ctx, nil, base+"/metrics"); err == nil && int(s.Sum("subdex_steps_total")) >= want {
			return s, nil
		}
	}
}

// clusterScanDigests scans the whole-database group — every candidate
// key, PruneNone so the scan is complete — once locally and once across
// the worker fleet, and reports whether the TopMaps digests agree.
func clusterScanDigests(ctx context.Context, db *dataset.DB, workers []string) (bool, error) {
	coord, err := cluster.NewCoordinator(ctx, db, cluster.CoordinatorConfig{Workers: workers, HealthInterval: -1})
	if err != nil {
		return false, err
	}
	defer coord.Close()
	local, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		return false, err
	}
	// The distributed explorer binds the engine fingerprint the workers
	// check on every scan RPC.
	distCfg := core.DefaultConfig()
	distCfg.Scanner = coord
	dist, err := core.NewExplorer(db, distCfg)
	if err != nil {
		return false, err
	}
	group, err := local.Query.Materialize(query.Description{})
	if err != nil {
		return false, err
	}
	keys := local.Gen.Candidates(local.Query, query.Description{})
	cfg := engine.DefaultConfig()
	cfg.Pruning = engine.PruneNone
	var digests [2]string
	for i, ex := range []*core.Explorer{local, dist} {
		res, err := ex.Gen.TopMapsCtx(ctx, group, keys, ratingmap.NewSeenSet(), 6, cfg)
		if err != nil {
			return false, err
		}
		if res.Degraded {
			return false, errors.New("whole-database scan degraded")
		}
		digests[i] = ratingmap.DigestMaps(res.Maps)
	}
	return digests[0] == digests[1], nil
}
