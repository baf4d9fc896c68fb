// Command sdeload is the serving-layer load and soak generator: it ramps
// a population of seeded simulated explorers (internal/workload) against
// either an in-process explorer, a self-hosted HTTP server, or a remote
// -target, scrapes the observability registry for latency quantiles and
// error/degradation counts, asserts SLOs, and writes a machine-readable
// BENCH_serving.json artifact.
//
//	sdeload -generate demo -users 32 -steps 8
//	sdeload -generate yelp -scale 0.05 -mode http -users 64 -duration 30s -ramp 5s
//	sdeload -target http://localhost:8080 -users 16 -duration 1m -think 200ms
//	sdeload -generate demo -users 8 -step-timeout 5ms -fault-every 3 -fault-delay 10ms
//	sdeload -soak-kill -generate yelp -scale 0.05 -seed 7 -users 8 -steps 10
//
// -soak-kill is the durability soak: it runs the workload against a
// self-hosted child server backed by a write-ahead session store,
// SIGKILLs the child mid-run, restarts it on the same address and
// store directory, and fails unless every user's golden trace is
// byte-identical to an uninterrupted run and at least one session was
// recovered by WAL replay. sdeload asserts correctness; what the WAL or
// the cluster costs is measured by bench/ (see bench/README.md).
//
// Every run with the same -seed replays the same population paths (think
// pacing and fault injection never perturb which operations a user
// draws), so a soak failure is replayable at full fidelity.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"subdex/internal/buildinfo"
	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/server"
	"subdex/internal/workload"
)

func main() {
	var (
		generate = flag.String("generate", "demo", "dataset to generate: demo | movielens | yelp | hotels")
		scale    = flag.Float64("scale", 1.0, "dataset scale for -generate")
		seed     = flag.Int64("seed", 1, "seed for generation and user decision streams")
		mode     = flag.String("mode", "inproc", "driving mode: inproc | http")
		target   = flag.String("target", "", "load an external server at this base URL instead of self-hosting (scrapes <target>/metrics)")

		users       = flag.Int("users", 8, "concurrent simulated users")
		steps       = flag.Int("steps", 0, "step budget per user (0: 8, or unlimited under -duration)")
		duration    = flag.Duration("duration", 0, "wall-clock bound for the whole run (soak mode)")
		ramp        = flag.Duration("ramp", 0, "stagger user starts across this interval")
		think       = flag.Duration("think", 0, "mean think time between operations (exponential, capped at 4x)")
		mixFlag     = flag.String("mix", "", "operation mix, e.g. recommend=0.55,drill=0.25,back=0.15,auto=0.05")
		autoLen     = flag.Int("auto-len", 3, "auto-pilot burst length")
		sessionMode = flag.String("session-mode", "rp", "exploration mode: ud | rp | fa")
		predicate   = flag.String("predicate", "", "starting selection predicate")

		stepTimeout = flag.Duration("step-timeout", 0, "per-step compute deadline (0: unlimited; steps past the first phase degrade instead of failing)")
		maxSessions = flag.Int("max-sessions", 0, "admission cap on live sessions (0: unlimited; http/inproc self-host only)")
		faultEvery  = flag.Int("fault-every", 0, "inject a fault into every Nth engine phase (0: no faults)")
		faultDelay  = flag.Duration("fault-delay", 5*time.Millisecond, "stall injected by -fault-every faults")

		sloP95      = flag.Duration("slo-p95", 0, "fail if p95 step latency exceeds this (0: unchecked)")
		sloP99      = flag.Duration("slo-p99", 0, "fail if p99 step latency exceeds this (0: unchecked)")
		sloErrRate  = flag.Float64("slo-error-rate", -1, "fail if (busy+admission+timeout+other)/ops exceeds this fraction (negative: unchecked)")
		sloDegRate  = flag.Float64("slo-degraded-rate", -1, "fail if degraded/steps exceeds this fraction (negative: unchecked)")
		sloMinSteps = flag.Int("slo-min-steps", 1, "fail if the population executed fewer total steps than this")

		benchout  = flag.String("benchout", "BENCH_serving.json", "output path for the machine-readable bench artifact ('' disables)")
		flightDir = flag.String("flight-dir", "", "directory for flight-recorder dumps on SLO breach ('' disables; self-hosted modes only)")
		exemplars = flag.Int("exemplars", 5, "record the K slowest steps' trace IDs and EXPLAIN profiles as exemplars (0 disables)")

		soakKill = flag.Bool("soak-kill", false,
			"run the kill-and-resume durability soak: self-host a child server with a durable session store, SIGKILL it mid-run, restart it on the same address and store, and assert zero golden-trace divergence plus SLOs over the merged lifetimes")
		killFrac = flag.Float64("kill-frac", 0.5,
			"fraction of the population step budget after which -soak-kill fires the SIGKILL")
		sessionDir = flag.String("session-dir", "",
			"session store directory for -soak-kill (default: a temp dir, removed on pass, kept on failure)")

		clusterSoak = flag.Bool("cluster-soak", false,
			"run the distributed-engine soak: self-host -cluster-nodes scan-worker processes, drive the workload against a single-node server and a coordinator-backed one, and assert byte-identical golden traces, a digest-identical whole-database scan and no lost partition")
		clusterNodes = flag.Int("cluster-nodes", 3,
			"worker process count for -cluster-soak")

		childServe = flag.Bool("child-serve", false, "internal: serve as the -soak-kill child server process")
		childAddr  = flag.String("child-addr", "", "internal: child listen address (-child-serve and -cluster-worker)")
		childWork  = flag.Bool("cluster-worker", false, "internal: serve as a -cluster-soak scan-worker process")
	)
	flag.Parse()
	if err := run(context.Background(), options{
		generate: *generate, scale: *scale, seed: *seed,
		mode: *mode, target: *target,
		users: *users, steps: *steps, duration: *duration, ramp: *ramp,
		think: *think, mix: *mixFlag, autoLen: *autoLen,
		sessionMode: *sessionMode, predicate: *predicate,
		stepTimeout: *stepTimeout, maxSessions: *maxSessions,
		faultEvery: *faultEvery, faultDelay: *faultDelay,
		sloP95: *sloP95, sloP99: *sloP99,
		sloErrRate: *sloErrRate, sloDegRate: *sloDegRate, sloMinSteps: *sloMinSteps,
		benchout: *benchout, flightDir: *flightDir, exemplars: *exemplars,
		soakKill: *soakKill, killFrac: *killFrac,
		sessionDir: *sessionDir, childServe: *childServe, childAddr: *childAddr,
		clusterSoak: *clusterSoak, clusterNodes: *clusterNodes, clusterWorker: *childWork,
	}); err != nil {
		code := 1
		var ue usageError
		if errorsAs(err, &ue) {
			code = 2
		}
		fmt.Fprintf(os.Stderr, "sdeload: %v\n", err)
		os.Exit(code)
	}
}

// usageError marks configuration-level failures (exit code 2, like flag
// parse errors) as opposed to run or SLO failures (exit code 1).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// errorsAs is a tiny local alias so the main flow reads linearly.
func errorsAs(err error, target *usageError) bool {
	u, ok := err.(usageError)
	if ok {
		*target = u
	}
	return ok
}

// options carries the parsed flag set.
type options struct {
	generate    string
	scale       float64
	seed        int64
	mode        string
	target      string
	users       int
	steps       int
	duration    time.Duration
	ramp        time.Duration
	think       time.Duration
	mix         string
	autoLen     int
	sessionMode string
	predicate   string
	stepTimeout time.Duration
	maxSessions int
	faultEvery  int
	faultDelay  time.Duration
	sloP95      time.Duration
	sloP99      time.Duration
	sloErrRate  float64
	sloDegRate  float64
	sloMinSteps int
	benchout    string
	flightDir   string
	exemplars   int
	soakKill    bool
	killFrac    float64
	sessionDir  string
	childServe  bool
	childAddr   string

	clusterSoak   bool
	clusterNodes  int
	clusterWorker bool
}

// benchReport is the BENCH_serving.json artifact.
type benchReport struct {
	Bench     string  `json:"bench"`
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Seed      int64   `json:"seed"`
	Mode      string  `json:"mode"`
	Users     int     `json:"users"`
	WallSecs  float64 `json:"wall_seconds"`
	Steps     int     `json:"steps"`
	StepsPerS float64 `json:"throughput_steps_per_sec"`

	P50Ms float64 `json:"step_latency_p50_ms"`
	P95Ms float64 `json:"step_latency_p95_ms"`
	P99Ms float64 `json:"step_latency_p99_ms"`

	Degraded     int     `json:"degraded_steps"`
	DegradedRate float64 `json:"degraded_rate"`

	Busy      int     `json:"errors_busy_409"`
	Admission int     `json:"errors_admission_429"`
	Timeout   int     `json:"errors_timeout_504"`
	Other     int     `json:"errors_other"`
	ErrRate   float64 `json:"error_rate"`

	FaultEvery int        `json:"fault_every,omitempty"`
	SLOChecks  []sloCheck `json:"slo_checks,omitempty"`
	SLOPass    bool       `json:"slo_pass"`

	// Exemplars are the run's K slowest step calls, each carrying the
	// trace ID that resolves it against /debug/spans?trace= and
	// /debug/flightrecorder?trace= and its EXPLAIN profile.
	Exemplars []workload.Exemplar `json:"exemplars,omitempty"`
	// FlightDump is the path of the flight-recorder dump an SLO breach
	// produced, when -flight-dir was set.
	FlightDump string `json:"flight_dump,omitempty"`

	// Recovery is the kill-and-resume soak's extra section (-soak-kill
	// runs only).
	Recovery *recoveryReport `json:"recovery,omitempty"`

	// Cluster is the distributed-engine soak's extra section
	// (-cluster-soak runs only).
	Cluster *clusterReport `json:"cluster,omitempty"`

	// Version, Commit, and GoVersion identify the binary that produced
	// the artifact (mirroring the subdex_build_info gauge).
	Version   string `json:"version"`
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
}

// sloCheck records one asserted objective.
type sloCheck struct {
	Name  string  `json:"name"`
	Limit float64 `json:"limit"`
	Got   float64 `json:"got"`
	Pass  bool    `json:"pass"`
}

func run(ctx context.Context, o options) error {
	if o.childServe {
		return runChildServe(o)
	}
	if o.clusterWorker {
		return runChildWorker(o)
	}
	if o.soakKill {
		return runSoakKill(ctx, o)
	}
	if o.clusterSoak {
		return runClusterSoak(ctx, o)
	}
	sessMode, err := parseSessionMode(o.sessionMode)
	if err != nil {
		return err
	}
	mix, err := workload.ParseMix(o.mix)
	if err != nil {
		return usageError{err.Error()}
	}
	cfg := workload.Config{
		Users:        o.users,
		Seed:         o.seed,
		StepsPerUser: o.steps,
		Duration:     o.duration,
		Ramp:         o.ramp,
		Think:        o.think,
		Mix:          mix,
		AutoLen:      o.autoLen,
		Mode:         sessMode,
		Predicate:    o.predicate,
		ExemplarK:    o.exemplars,
	}

	var (
		factory  workload.ClientFactory
		snapshot func() (*workload.Scrape, error)
		before   *workload.Scrape
		modeName = o.mode
		// flight is the recorder an SLO breach dumps: the server's in http
		// mode (its ring holds the per-step wide events), a client-side one
		// in inproc mode.
		flight *obs.FlightRecorder
	)
	switch {
	case o.target != "":
		if o.faultEvery > 0 || o.maxSessions > 0 || o.stepTimeout > 0 {
			return usageError{"-fault-every/-max-sessions/-step-timeout configure a self-hosted engine and cannot apply to an external -target"}
		}
		if o.flightDir != "" {
			return usageError{"-flight-dir dumps a self-hosted engine's flight recorder and cannot apply to an external -target"}
		}
		modeName = "target"
		factory = workload.HTTPFactory(o.target, nil, sessMode, o.predicate)
		url := o.target + "/metrics"
		snapshot = func() (*workload.Scrape, error) { return workload.FetchMetrics(ctx, nil, url) }
		if before, err = snapshot(); err != nil {
			return fmt.Errorf("pre-run scrape of %s: %w", url, err)
		}
	default:
		db, err := buildDataset(o)
		if err != nil {
			return err
		}
		coreCfg := engineConfig(o)
		switch o.mode {
		case "inproc":
			if o.maxSessions > 0 {
				return usageError{"-max-sessions is admission control on the HTTP session layer; use -mode http"}
			}
			ex, err := core.NewExplorer(db, coreCfg)
			if err != nil {
				return err
			}
			reg := obs.NewRegistry()
			ex.Instrument(reg)
			if o.flightDir != "" {
				flight = obs.NewFlightRecorder(obs.FlightOptions{Dir: o.flightDir, Name: "sdeload"})
				cfg.Flight = flight
			}
			factory = workload.InprocFactory(ex, sessMode, o.predicate)
			snapshot = registrySnapshot(reg)
		case "http":
			srv, err := server.NewWithOptions(db, coreCfg,
				server.Options{MaxSessions: o.maxSessions, FlightDir: o.flightDir})
			if err != nil {
				return err
			}
			flight = srv.Flight()
			base, stop, err := serveLocal(srv)
			if err != nil {
				return err
			}
			defer stop()
			fmt.Printf("serving %s on %s\n", db.Name, base)
			factory = workload.HTTPFactory(base, nil, sessMode, o.predicate)
			snapshot = registrySnapshot(srv.Registry())
		default:
			return usageError{fmt.Sprintf("unknown -mode %q (want inproc or http)", o.mode)}
		}
	}

	res, err := workload.Run(ctx, cfg, factory)
	if err != nil {
		return err
	}
	after, err := snapshot()
	if err != nil {
		return fmt.Errorf("post-run scrape: %w", err)
	}
	if before != nil {
		after = after.Delta(before)
	}

	rep := report(o, modeName, res, after)
	if !rep.SLOPass && flight.DumpsEnabled() {
		// One rate-limited dump per breach: the recent ring (the slow or
		// failing steps, wide events with trace IDs) plus a goroutine/heap
		// snapshot land under -flight-dir for post-mortem.
		if path, dumped, err := flight.Trigger("slo_breach"); err != nil {
			fmt.Fprintf(os.Stderr, "sdeload: flight-recorder dump failed: %v\n", err)
		} else if dumped {
			rep.FlightDump = path
		}
	}
	render(os.Stdout, res, rep)
	if o.benchout != "" {
		if err := writeBench(o.benchout, rep); err != nil {
			return err
		}
	}
	if fails := res.Failures(); len(fails) != 0 {
		n := len(fails)
		if n > 3 {
			fails = fails[:3]
		}
		return fmt.Errorf("%d user(s) failed terminally, e.g. %q", n, fails[0])
	}
	if !rep.SLOPass {
		return fmt.Errorf("SLO breach: %s", describeBreaches(rep.SLOChecks))
	}
	return nil
}

// writeBench serializes the bench artifact.
func writeBench(path string, rep *benchReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// buildDataset generates the configured synthetic dataset.
func buildDataset(o options) (*dataset.DB, error) {
	db, err := gen.ByName(o.generate, gen.Config{Seed: o.seed, Scale: o.scale})
	if err != nil {
		return nil, usageError{"-generate: " + err.Error()}
	}
	return db, nil
}

// parseSessionMode maps the wire token to a core.Mode.
func parseSessionMode(s string) (core.Mode, error) {
	m, err := core.ParseModeToken(s)
	if err != nil || s == "" {
		return 0, usageError{fmt.Sprintf("unknown -session-mode %q (want ud, rp, or fa)", s)}
	}
	return m, nil
}

// engineConfig is the configuration of every engine this binary hosts:
// the shipped defaults plus the run's step deadline and fault injector.
func engineConfig(o options) core.Config {
	cfg := core.DefaultConfig()
	cfg.StepTimeout = o.stepTimeout
	cfg.Engine.PhaseHook = faultHook(o.faultEvery, o.faultDelay)
	return cfg
}

// faultHook builds the engine fault injector: every Nth phase entry
// stalls for delay, honoring the phase context so deadline-cut steps
// degrade exactly like production stalls (GC pauses, noisy neighbors)
// would. A zero n disables injection.
func faultHook(n int, delay time.Duration) func(ctx context.Context, phase int) {
	if n <= 0 || delay <= 0 {
		return nil
	}
	// The hook fires on engine worker goroutines; approximate spacing is
	// all fault injection needs. An atomic keeps the race detector quiet.
	var calls atomic.Int64
	return func(ctx context.Context, _ int) {
		if calls.Add(1)%int64(n) != 0 {
			return
		}
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}

// registrySnapshot scrapes an in-process registry through the same text
// exposition a remote /metrics serves, so every mode reads identical
// metric shapes.
func registrySnapshot(reg *obs.Registry) func() (*workload.Scrape, error) {
	return func() (*workload.Scrape, error) {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		return workload.ParseMetrics(&buf)
	}
}

// report assembles the bench artifact from runner results and the
// scraped engine metrics.
func report(o options, modeName string, res *workload.Result, s *workload.Scrape) *benchReport {
	rep := &benchReport{
		Bench:    "serving",
		Dataset:  o.generate,
		Scale:    o.scale,
		Seed:     o.seed,
		Mode:     modeName,
		Users:    o.users,
		WallSecs: res.Wall.Seconds(),
		Steps:    res.Steps,
		Degraded: res.Degraded,

		Busy:      res.Errors.Busy,
		Admission: res.Errors.Admission,
		Timeout:   res.Errors.Timeout,
		Other:     res.Errors.Other,

		FaultEvery: o.faultEvery,
		Exemplars:  res.Exemplars,
	}
	info := buildinfo.Get()
	rep.Version, rep.Commit, rep.GoVersion = info.Version, info.Commit, info.GoVersion
	if res.Wall > 0 {
		rep.StepsPerS = float64(res.Steps) / res.Wall.Seconds()
	}
	if h := s.Histogram("subdex_step_duration_seconds"); h != nil {
		rep.P50Ms = h.Quantile(0.50) * 1000
		rep.P95Ms = h.Quantile(0.95) * 1000
		rep.P99Ms = h.Quantile(0.99) * 1000
	}
	if res.Steps > 0 {
		rep.DegradedRate = float64(res.Degraded) / float64(res.Steps)
	}
	if ops := res.Steps + res.Errors.Total(); ops > 0 {
		rep.ErrRate = float64(res.Errors.Total()) / float64(ops)
	}
	rep.SLOChecks, rep.SLOPass = assertSLOs(o, rep)
	return rep
}

// assertSLOs evaluates every configured objective.
func assertSLOs(o options, rep *benchReport) ([]sloCheck, bool) {
	var checks []sloCheck
	add := func(name string, limit, got float64) {
		checks = append(checks, sloCheck{Name: name, Limit: limit, Got: got, Pass: got <= limit})
	}
	if o.sloMinSteps > 0 {
		checks = append(checks, sloCheck{
			Name: "min_steps", Limit: float64(o.sloMinSteps), Got: float64(rep.Steps),
			Pass: rep.Steps >= o.sloMinSteps,
		})
	}
	if o.sloP95 > 0 {
		add("p95_ms", float64(o.sloP95)/float64(time.Millisecond), rep.P95Ms)
	}
	if o.sloP99 > 0 {
		add("p99_ms", float64(o.sloP99)/float64(time.Millisecond), rep.P99Ms)
	}
	if o.sloErrRate >= 0 {
		add("error_rate", o.sloErrRate, rep.ErrRate)
	}
	if o.sloDegRate >= 0 {
		add("degraded_rate", o.sloDegRate, rep.DegradedRate)
	}
	pass := true
	for _, c := range checks {
		pass = pass && c.Pass
	}
	return checks, pass
}

// describeBreaches renders the failed checks.
func describeBreaches(checks []sloCheck) string {
	out := ""
	for _, c := range checks {
		if c.Pass {
			continue
		}
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s got %.4g limit %.4g", c.Name, c.Got, c.Limit)
	}
	return out
}

// render prints the human-readable summary.
func render(w *os.File, res *workload.Result, rep *benchReport) {
	fmt.Fprintf(w, "%d users, %d steps in %.2fs (%.1f steps/s)\n",
		rep.Users, rep.Steps, rep.WallSecs, rep.StepsPerS)
	fmt.Fprintf(w, "step latency p50=%.2fms p95=%.2fms p99=%.2fms\n",
		rep.P50Ms, rep.P95Ms, rep.P99Ms)
	fmt.Fprintf(w, "degraded %d (%.2f%%)  errors busy=%d admission=%d timeout=%d other=%d (%.2f%%)\n",
		rep.Degraded, 100*rep.DegradedRate,
		rep.Busy, rep.Admission, rep.Timeout, rep.Other, 100*rep.ErrRate)
	for _, c := range rep.SLOChecks {
		verdict := "ok"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "slo %-14s limit %.4g got %.4g  %s\n", c.Name, c.Limit, c.Got, verdict)
	}
	if len(rep.Exemplars) > 0 {
		e := rep.Exemplars[0]
		fmt.Fprintf(w, "slowest step: user %d step %d %s %.2fms trace %s\n",
			e.User, e.Step, e.Op, e.DurationMS, e.TraceID)
	}
	if rep.FlightDump != "" {
		fmt.Fprintf(w, "flight-recorder dump: %s\n", rep.FlightDump)
	}
	if n := len(res.Failures()); n > 0 {
		fmt.Fprintf(w, "terminal failures: %d\n", n)
	}
}
