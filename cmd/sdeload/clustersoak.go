// The distributed-engine soak (-cluster-soak): sdeload re-executes
// itself as N scan-worker processes, runs the workload twice over the
// same dataset — phase A against a plain single-process server, phase B
// against a server whose engine scans are partitioned across the worker
// fleet by a cluster coordinator — and byte-compares every user's
// recorded walk across the phases. The proof obligations:
//
//   - Zero golden-trace divergence: distribution is a scheduling choice;
//     a coordinator-backed server must answer byte-identically to a
//     single process, step for step.
//   - A digest-identical direct scan: the TopMaps digest of the
//     whole-database group matches between a 1-thread local scan and the
//     distributed scan.
//   - No partitions lost: the run was healthy, so anytime degradation
//     never triggered (subdex_cluster_partitions_lost_total == 0).
//
// Whether distribution is faster is bench/'s to measure (cluster_sweep
// against scan_sweep, cluster.vs_local_ratio), not this soak's to assert.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"

	"subdex/internal/cluster"
	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
	"subdex/internal/server"
	"subdex/internal/workload"
)

// clusterReport is the benchReport section the cluster soak adds.
type clusterReport struct {
	Nodes int `json:"nodes"`
	// GoldenSteps is the number of byte-compared workload records across
	// phase A and B; GoldenDivergences must be zero.
	GoldenSteps       int `json:"golden_steps"`
	GoldenDivergences int `json:"golden_divergences"`
	// DigestsIdentical is true when the distributed whole-database
	// TopMaps digest matched the single-thread scan's.
	DigestsIdentical bool `json:"digests_identical"`
	// PartitionsLost comes from the coordinator registry after phase B.
	PartitionsLost float64 `json:"partitions_lost"`
	Retries        float64 `json:"cluster_retries"`
}

// runChildWorker is the hidden worker mode: build the dataset and serve
// cluster partition scans until killed.
func runChildWorker(o options) error {
	db, err := buildDataset(o)
	if err != nil {
		return err
	}
	ex, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		return err
	}
	w := cluster.NewWorker(ex, cluster.WorkerOptions{Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", o.childAddr)
	if err != nil {
		return err
	}
	fmt.Printf("sdeload worker: serving %s scans on %s (fingerprint %s)\n",
		db.Name, ln.Addr(), w.Fingerprint())
	return (&http.Server{Handler: w.Handler(), ReadHeaderTimeout: 5 * time.Second}).Serve(ln)
}

// startWorker spawns this binary in cluster-worker mode and waits for
// its health endpoint.
func startWorker(ctx context.Context, exe string, o options, addr string) (string, *child, error) {
	args := []string{
		"-cluster-worker", "-child-addr", addr,
		"-generate", o.generate,
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-seed", strconv.FormatInt(o.seed, 10),
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	base := "http://" + addr
	if err := waitReady(ctx, base); err != nil {
		c := &child{cmd: cmd}
		c.kill()
		return "", nil, fmt.Errorf("worker on %s never became ready: %w", addr, err)
	}
	return base, &child{cmd: cmd}, nil
}

// serveLocal hosts a server on a loopback listener for one phase.
func serveLocal(srv *server.Server) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() { hs.Close(); srv.Close() }
	return "http://" + ln.Addr().String(), stop, nil
}

// runClusterSoak orchestrates the two phases, the direct scan
// comparison, and the assertions.
func runClusterSoak(ctx context.Context, o options) error {
	if o.target != "" {
		return usageError{"-cluster-soak self-hosts its servers and cannot apply to an external -target"}
	}
	if o.duration > 0 {
		return usageError{"-cluster-soak needs a fixed step budget for golden comparison; use -steps, not -duration"}
	}
	if o.faultEvery > 0 || o.stepTimeout > 0 {
		return usageError{"-cluster-soak requires deterministic steps; drop -fault-every and -step-timeout"}
	}
	if o.clusterNodes < 1 {
		return usageError{"-cluster-nodes must be at least 1"}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sessMode, err := parseSessionMode(o.sessionMode)
	if err != nil {
		return err
	}
	mix, err := workload.ParseMix(o.mix)
	if err != nil {
		return usageError{err.Error()}
	}
	steps := o.steps
	if steps <= 0 {
		steps = 8
	}
	cfg := workload.Config{
		Users: o.users, Seed: o.seed, StepsPerUser: steps,
		Ramp: o.ramp, Think: o.think, Mix: mix, AutoLen: o.autoLen,
		Mode: sessMode, Predicate: o.predicate,
		Record: true, ExemplarK: o.exemplars,
	}
	db, err := buildDataset(o)
	if err != nil {
		return err
	}

	// Worker fleet: one child process per node, each holding its own
	// frozen copy of the dataset.
	fmt.Printf("cluster-soak: starting %d scan workers\n", o.clusterNodes)
	workers := make([]string, o.clusterNodes)
	for i := range workers {
		addr, err := pickAddr()
		if err != nil {
			return err
		}
		base, c, err := startWorker(ctx, exe, o, addr)
		if err != nil {
			return err
		}
		defer c.kill()
		workers[i] = base
	}

	// Phase A: plain single-process server.
	fmt.Println("cluster-soak phase A: single-node baseline")
	srvA, err := server.New(db, core.DefaultConfig())
	if err != nil {
		return err
	}
	baseA, stopA, err := serveLocal(srvA)
	if err != nil {
		srvA.Close()
		return err
	}
	resA, err := workload.Run(ctx, cfg, workload.HTTPFactory(baseA, nil, sessMode, o.predicate))
	stopA()
	if err != nil {
		return err
	}
	if fails := resA.Failures(); len(fails) != 0 {
		return fmt.Errorf("baseline run failed: %d user(s), e.g. %q", len(fails), fails[0])
	}

	// Phase B: coordinator-backed server over the worker fleet, sharing
	// one registry so the final scrape carries subdex_cluster_*.
	fmt.Printf("cluster-soak phase B: coordinator over %d workers\n", o.clusterNodes)
	reg := obs.NewRegistry()
	coord, err := cluster.NewCoordinator(context.Background(), db, cluster.CoordinatorConfig{
		Workers:  workers,
		Registry: reg,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	cfgB := core.DefaultConfig()
	cfgB.Scanner = coord
	srvB, err := server.NewWithOptions(db, cfgB, server.Options{Registry: reg})
	if err != nil {
		return err
	}
	baseB, stopB, err := serveLocal(srvB)
	if err != nil {
		srvB.Close()
		return err
	}
	resB, err := workload.Run(ctx, cfg, workload.HTTPFactory(baseB, nil, sessMode, o.predicate))
	if err != nil {
		stopB()
		return err
	}
	scrapeB, err := workload.FetchMetrics(ctx, nil, baseB+"/metrics")
	stopB()
	if err != nil {
		return fmt.Errorf("phase B scrape: %w", err)
	}
	if fails := resB.Failures(); len(fails) != 0 {
		return fmt.Errorf("cluster run failed: %d user(s), e.g. %q", len(fails), fails[0])
	}

	goldenSteps, divergences := compareGolden(resA, resB)
	identical, err := clusterScanDigests(ctx, db, coord)
	if err != nil {
		return err
	}
	cr := &clusterReport{
		Nodes:             o.clusterNodes,
		GoldenSteps:       goldenSteps,
		GoldenDivergences: len(divergences),
		DigestsIdentical:  identical,
		PartitionsLost:    scrapeB.Sum("subdex_cluster_partitions_lost_total"),
		Retries:           scrapeB.Sum("subdex_cluster_retries_total"),
	}
	rep := report(o, "cluster-soak", resB, scrapeB)
	rep.Cluster = cr
	rep.SLOChecks = append(rep.SLOChecks, clusterChecks(cr)...)
	for _, c := range rep.SLOChecks {
		rep.SLOPass = rep.SLOPass && c.Pass
	}
	render(os.Stdout, resB, rep)
	if o.benchout != "" {
		if err := writeBench(o.benchout, rep); err != nil {
			return err
		}
	}
	if len(divergences) > 0 {
		max := len(divergences)
		if max > 8 {
			divergences = divergences[:8]
		}
		for _, d := range divergences {
			fmt.Fprintln(os.Stderr, "golden divergence:", d)
		}
		return fmt.Errorf("distributed run diverged from single-node baseline in %d place(s)", max)
	}
	if !rep.SLOPass {
		return fmt.Errorf("SLO breach: %s", describeBreaches(rep.SLOChecks))
	}
	fmt.Printf("cluster-soak pass: %d golden steps byte-identical across %d nodes\n",
		goldenSteps, o.clusterNodes)
	return nil
}

// clusterScanDigests scans the whole-database group — every candidate
// key, PruneNone so the scan is complete — once on one local thread and
// once across the worker fleet, and reports whether the TopMaps digests
// agree.
func clusterScanDigests(ctx context.Context, db *dataset.DB, coord *cluster.Coordinator) (bool, error) {
	qe, err := query.NewEngine(db)
	if err != nil {
		return false, err
	}
	group, err := qe.Materialize(query.Description{})
	if err != nil {
		return false, err
	}
	gLocal := engine.NewGenerator(db)
	keys := gLocal.Candidates(qe, query.Description{})
	gDist := engine.NewGenerator(db)
	gDist.Scanner = coord

	cfg := engine.DefaultConfig()
	cfg.Pruning = engine.PruneNone

	resL, err := gLocal.TopMapsCtx(ctx, group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		return false, err
	}
	resD, err := gDist.TopMapsCtx(ctx, group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		return false, err
	}
	if resD.Degraded {
		return false, fmt.Errorf("distributed whole-database scan degraded")
	}
	return ratingmap.DigestMaps(resL.Maps) == ratingmap.DigestMaps(resD.Maps), nil
}

// clusterChecks renders the soak's objectives as SLO rows.
func clusterChecks(cr *clusterReport) []sloCheck {
	boolGot := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return []sloCheck{
		{Name: "golden_divergences", Limit: 0, Got: float64(cr.GoldenDivergences),
			Pass: cr.GoldenDivergences == 0},
		{Name: "digests_identical", Limit: 1, Got: boolGot(cr.DigestsIdentical),
			Pass: cr.DigestsIdentical},
		{Name: "partitions_lost", Limit: 0, Got: cr.PartitionsLost,
			Pass: cr.PartitionsLost == 0},
	}
}
