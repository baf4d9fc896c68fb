// Command sdeload is the serving-layer load and soak generator: it ramps
// a population of seeded simulated explorers (internal/workload) against
// a server it self-hosts over loopback HTTP, or a remote -target, asserts
// objectives over what the population saw, and writes one
// machine-readable verdict. It asserts and nothing else: throughput,
// latency and what the WAL costs are bench/'s to measure (see
// bench/README.md).
//
//	sdeload -generate demo -users 32 -steps 8
//	sdeload -generate yelp -scale 0.05 -users 64 -duration 30s -ramp 5s
//	sdeload -target http://localhost:8080 -users 16 -duration 1m -think 200ms
//	sdeload -generate demo -users 8 -step-timeout 5ms -fault-every 3 -fault-delay 10ms
//	sdeload -soak-kill -generate yelp -scale 0.5 -seed 7 -users 4 -steps 5
//
// -soak-kill selects the differential soak described in soak.go.
//
// Every run with the same -seed replays the same population paths (think
// pacing and fault injection never perturb which operations a user
// draws), so a soak failure is replayable at full fidelity.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"subdex/internal/buildinfo"
	"subdex/internal/core"
	"subdex/internal/daemon"
	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/server"
	"subdex/internal/workload"
)

func main() {
	childMain()
	o := options{exemplars: 5, killFrac: 0.5}
	flag.StringVar(&o.generate, "generate", "demo", "dataset to generate: demo | movielens | yelp | hotels")
	flag.Float64Var(&o.scale, "scale", 1.0, "dataset scale for -generate")
	flag.Int64Var(&o.seed, "seed", 1, "seed for generation and user decision streams")
	flag.StringVar(&o.target, "target", "", "load an external server at this base URL instead of self-hosting")

	flag.IntVar(&o.users, "users", 8, "concurrent simulated users")
	flag.IntVar(&o.steps, "steps", 0, "step budget per user (0: 8, or unlimited under -duration)")
	flag.DurationVar(&o.duration, "duration", 0, "wall-clock bound for the whole run (soak mode)")
	flag.DurationVar(&o.ramp, "ramp", 0, "stagger user starts across this interval")
	flag.DurationVar(&o.think, "think", 0, "mean think time between operations (exponential, capped at 4x)")
	flag.StringVar(&o.mix, "mix", "", "operation mix, e.g. recommend=0.55,drill=0.25,back=0.15,auto=0.05")
	flag.StringVar(&o.sessionMode, "session-mode", "rp", "exploration mode: ud | rp | fa")

	flag.DurationVar(&o.stepTimeout, "step-timeout", 0, "per-step compute deadline (0: unlimited; steps past the first phase degrade instead of failing)")
	flag.IntVar(&o.faultEvery, "fault-every", 0, "inject a fault into every Nth engine phase (0: no faults)")
	flag.DurationVar(&o.faultDelay, "fault-delay", 5*time.Millisecond, "stall injected by -fault-every faults")

	flag.Float64Var(&o.sloErrRate, "slo-error-rate", -1, "fail if (busy+admission+timeout+other)/ops exceeds this fraction (negative: unchecked)")
	flag.Float64Var(&o.sloDegRate, "slo-degraded-rate", -1, "fail if degraded/steps exceeds this fraction (negative: unchecked)")
	flag.IntVar(&o.sloMinSteps, "slo-min-steps", 1, "fail if the population executed fewer total steps than this")

	flag.StringVar(&o.benchout, "benchout", "sdeload_verdict.json", "output path for the verdict ('' disables)")
	flag.StringVar(&o.flightDir, "flight-dir", "", "directory for the self-hosted server's flight-recorder dump when a check fails ('' disables)")

	flag.BoolVar(&o.soakKill, "soak-kill", false,
		"differential soak: the variant server keeps a durable session store, is SIGKILLed at half the step budget and restarted on the same address and store")
	flag.Parse()

	if err := run(context.Background(), o); err != nil {
		fmt.Fprintf(os.Stderr, "sdeload: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks configuration-level failures (exit code 2, like flag
// parse errors) as opposed to run or check failures (exit code 1).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// options carries the parsed flag set, and three settings only tests
// move off main's defaults.
type options struct {
	generate    string
	scale       float64
	seed        int64
	target      string
	users       int
	steps       int
	duration    time.Duration
	ramp        time.Duration
	think       time.Duration
	mix         string
	sessionMode string
	stepTimeout time.Duration
	faultEvery  int
	faultDelay  time.Duration
	sloErrRate  float64
	sloDegRate  float64
	sloMinSteps int
	benchout    string
	flightDir   string
	soakKill    bool

	// exemplars keeps the K slowest steps' trace IDs and EXPLAIN profiles
	// in the verdict (0 disables).
	exemplars int
	// killFrac is the share of the population's step budget after which
	// the soak SIGKILLs its durable server.
	killFrac float64
	// sessionDir is the soak's session store ("": a temp dir, removed on
	// pass and kept on failure).
	sessionDir string
}

// verdict is the one artifact sdeload writes, whatever it ran: what the
// run was, what the population counted, and every asserted objective as
// a row of checks — the process exit status is Pass.
type verdict struct {
	// Mode is http (self-hosted) or target for a load run, and soak-kill
	// for the differential soak.
	Mode     string  `json:"mode"`
	Dataset  string  `json:"dataset"`
	Scale    float64 `json:"scale"`
	Seed     int64   `json:"seed"`
	Users    int     `json:"users"`
	WallSecs float64 `json:"wall_seconds"`

	Steps     int `json:"steps"`
	Degraded  int `json:"degraded_steps"`
	Busy      int `json:"errors_busy_409"`
	Admission int `json:"errors_admission_429"`
	Timeout   int `json:"errors_timeout_504"`
	Other     int `json:"errors_other"`

	FaultEvery int     `json:"fault_every,omitempty"`
	Checks     []check `json:"checks"`
	Pass       bool    `json:"pass"`

	// Exemplars are the run's K slowest step calls, each carrying the
	// trace ID that resolves it against /debug/spans?trace= and
	// /debug/flightrecorder?trace= and its EXPLAIN profile.
	Exemplars []workload.Exemplar `json:"exemplars,omitempty"`
	// FlightDump is the path of the flight-recorder dump a failed check
	// produced, when -flight-dir was set.
	FlightDump string `json:"flight_dump,omitempty"`

	// Version, Commit, and GoVersion identify the binary that produced
	// the artifact (mirroring the subdex_build_info gauge).
	Version   string `json:"version"`
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
}

// check records one asserted objective: a ceiling (atMost) or a floor
// (atLeast) on something the run observed.
type check struct {
	Name  string  `json:"name"`
	Limit float64 `json:"limit"`
	Got   float64 `json:"got"`
	Pass  bool    `json:"pass"`
}

func atMost(name string, limit, got float64) check {
	return check{Name: name, Limit: limit, Got: got, Pass: got <= limit}
}

func atLeast(name string, limit, got float64) check {
	return check{Name: name, Limit: limit, Got: got, Pass: got >= limit}
}

func run(ctx context.Context, o options) error {
	if o.soakKill {
		return runSoak(ctx, o)
	}
	cfg, err := workloadConfig(o)
	if err != nil {
		return err
	}

	base, mode := o.target, "target"
	var flight *obs.FlightRecorder // the recorder a failed check dumps
	if o.target != "" {
		if o.faultEvery > 0 || o.stepTimeout > 0 {
			return usageError{"-fault-every/-step-timeout configure a self-hosted engine and cannot apply to an external -target"}
		}
		if o.flightDir != "" {
			return usageError{"-flight-dir dumps a self-hosted server's flight recorder and cannot apply to an external -target"}
		}
	} else {
		db, err := buildDataset(o.generate, o.scale, o.seed)
		if err != nil {
			return err
		}
		srv, err := daemon.NewServer(ctx, db, daemon.ServerConfig{
			Core:    engineConfig(o),
			Options: server.Options{FlightDir: o.flightDir},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		flight = srv.Flight()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }() // ends at hs.Close
		defer hs.Close()
		base, mode = "http://"+ln.Addr().String(), "http"
		fmt.Printf("serving %s on %s\n", db.Name, base)
	}

	res, err := workload.Run(ctx, cfg, workload.HTTPFactory(base, nil, cfg.Mode, ""))
	if err != nil {
		return err
	}
	return finish(os.Stdout, o, report(o, mode, res), res, flight)
}

// workloadConfig maps the population flags onto a workload.Config.
func workloadConfig(o options) (workload.Config, error) {
	sessMode, err := parseSessionMode(o.sessionMode)
	if err != nil {
		return workload.Config{}, err
	}
	mix, err := workload.ParseMix(o.mix)
	if err != nil {
		return workload.Config{}, usageError{err.Error()}
	}
	return workload.Config{
		Users: o.users, Seed: o.seed, StepsPerUser: o.steps, Duration: o.duration,
		Ramp: o.ramp, Think: o.think, Mix: mix, Mode: sessMode, ExemplarK: o.exemplars,
	}, nil
}

// buildDataset generates the configured synthetic dataset.
func buildDataset(name string, scale float64, seed int64) (*dataset.DB, error) {
	db, err := gen.ByName(name, gen.Config{Seed: seed, Scale: scale})
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

// engineConfig is the configuration of the engine a load run hosts: the
// shipped defaults plus the run's step deadline and fault injector.
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
	// The hook runs on the goroutine of the step that enters the phase, and
	// the users of a run step concurrently, each on its own goroutine: they
	// share the counter, so it is an atomic.
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

// report assembles the verdict of one population run: its counts and the
// objectives the -slo-* flags configure. A soak appends its own rows.
func report(o options, mode string, res *workload.Result) *verdict {
	info := buildinfo.Get()
	rep := &verdict{
		Mode: mode, Dataset: o.generate, Scale: o.scale, Seed: o.seed,
		Users: o.users, WallSecs: res.Wall.Seconds(),
		Steps: res.Steps, Degraded: res.Degraded,
		Busy: res.Errors.Busy, Admission: res.Errors.Admission,
		Timeout: res.Errors.Timeout, Other: res.Errors.Other,
		FaultEvery: o.faultEvery, Exemplars: res.Exemplars,
		Version: info.Version, Commit: info.Commit, GoVersion: info.GoVersion,
	}
	if o.sloMinSteps > 0 {
		rep.Checks = append(rep.Checks, atLeast("min_steps", float64(o.sloMinSteps), float64(res.Steps)))
	}
	if ops := res.Steps + res.Errors.Total(); o.sloErrRate >= 0 {
		rep.Checks = append(rep.Checks, atMost("error_rate", o.sloErrRate, ratio(res.Errors.Total(), ops)))
	}
	if o.sloDegRate >= 0 {
		rep.Checks = append(rep.Checks, atMost("degraded_rate", o.sloDegRate, ratio(res.Degraded, res.Steps)))
	}
	return rep
}

func ratio(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// finish closes a run: it settles Pass, dumps the flight recorder on a
// failed check, prints the summary, writes the artifact, and turns
// terminal user failures or a failed verdict into the run's error.
func finish(w io.Writer, o options, rep *verdict, res *workload.Result, flight *obs.FlightRecorder) error {
	breaches := ""
	for _, c := range rep.Checks {
		if !c.Pass {
			breaches += fmt.Sprintf(", %s got %.4g limit %.4g", c.Name, c.Got, c.Limit)
		}
	}
	rep.Pass = breaches == ""
	if !rep.Pass && flight.DumpsEnabled() {
		// One rate-limited dump per breach: the recent ring (the slow or
		// failing steps, wide events with trace IDs) plus a goroutine/heap
		// snapshot land under -flight-dir for post-mortem.
		path, err := flight.Trigger("slo_breach")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdeload: flight-recorder dump failed: %v\n", err)
		}
		rep.FlightDump = path
	}
	render(w, rep)
	if o.benchout != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.benchout, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.benchout)
	}
	if err := terminalFailure(res); err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("SLO breach: %s", breaches[2:])
	}
	return nil
}

// terminalFailure reports the users whose walk a terminal error ended.
func terminalFailure(res *workload.Result) error {
	if fails := res.Failures(); len(fails) != 0 {
		return fmt.Errorf("%d user(s) failed terminally, e.g. %q", len(fails), fails[0])
	}
	return nil
}

// render prints the human-readable summary.
func render(w io.Writer, rep *verdict) {
	fmt.Fprintf(w, "%s: %d users, %d steps in %.2fs\n", rep.Mode, rep.Users, rep.Steps, rep.WallSecs)
	fmt.Fprintf(w, "degraded %d  errors busy=%d admission=%d timeout=%d other=%d\n",
		rep.Degraded, rep.Busy, rep.Admission, rep.Timeout, rep.Other)
	for _, c := range rep.Checks {
		outcome := "ok"
		if !c.Pass {
			outcome = "FAIL"
		}
		fmt.Fprintf(w, "check %-22s limit %.4g got %.4g  %s\n", c.Name, c.Limit, c.Got, outcome)
	}
	if len(rep.Exemplars) > 0 {
		e := rep.Exemplars[0]
		fmt.Fprintf(w, "slowest step: user %d step %d %s %.2fms trace %s\n",
			e.User, e.Step, e.Op, e.DurationMS, e.TraceID)
	}
	if rep.FlightDump != "" {
		fmt.Fprintf(w, "flight-recorder dump: %s\n", rep.FlightDump)
	}
}
