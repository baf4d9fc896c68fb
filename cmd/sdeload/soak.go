// The differential soak (-soak-kill): sdeload re-executes itself as
// child processes and runs the same seeded population twice. Phase A
// drives a plain child server, whose golden traces are the ground truth.
// Phase B drives a child server with a durable session store; it is
// SIGKILLed at half the step budget and restarted on the same
// address and store, and the retrying clients ride the outage. This
// exercises the exactly-once chain — log-before-respond on the server,
// op-id dedup on retry, deterministic WAL replay on boot. Both children
// are built by daemon.NewServer — the wiring subdexd ships — and the
// checks are soakChecks'.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"time"

	"subdex/internal/core"
	"subdex/internal/daemon"
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

// childSpec is what one child process is: a server, durable when the
// phase gives it a SessionDir.
type childSpec struct {
	Addr       string  `json:"addr"`
	Generate   string  `json:"generate"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	SessionDir string  `json:"session_dir,omitempty"`
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
	srv, err := daemon.NewServer(ctx, db, daemon.ServerConfig{
		Core:       core.DefaultConfig(),
		SessionDir: spec.SessionDir,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	return daemon.Serve(ctx, "sdeload child", spec.Addr, "", srv.Handler(), time.Second)
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
	raw, _ := json.Marshal(spec) // strings and numbers: cannot fail
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
// soakChecks turns them into verdict rows.
type soakFacts struct {
	// goldenDivergences counts the places phase B's recorded walks differ
	// from phase A's.
	goldenDivergences int
	// sessionsRecovered, replayRecords and walTruncations are the
	// restarted lifetime's recovery counters.
	sessionsRecovered, replayRecords, walTruncations float64
}

// soakChecks derives the soak's objectives: the answers never move, and a
// killed durable server must actually have recovered by WAL replay with
// nothing to cut (a SIGKILL cannot tear a write(2)).
func soakChecks(f soakFacts) []check {
	return []check{
		atMost("golden_divergences", 0, float64(f.goldenDivergences)),
		atLeast("sessions_recovered_min", 1, f.sessionsRecovered),
		atLeast("wal_replay_records_min", 1, f.replayRecords),
		atMost("wal_truncations", 0, f.walTruncations),
	}
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
		// proves recovery, not anytime behavior.
		return usageError{"a soak requires deterministic steps; drop -fault-every and -step-timeout"}
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
			workload.HTTPRetryFactory(c.base, nil, cfg.Mode, "", soakRetry))
		if err == nil {
			err = terminalFailure(res)
		}
		return res, err
	}

	// Phase A: the plain server, without a store.
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

	// Phase B: the durable server, killed and restarted mid-walk.
	variant := childSpec{SessionDir: o.sessionDir}
	if variant.SessionDir == "" {
		if variant.SessionDir, err = os.MkdirTemp("", "sdeload-soak-*"); err != nil {
			return err
		}
	}
	fmt.Printf("soak phase B: durable server (session store %q)\n", variant.SessionDir)
	b, err := start(variant)
	if err != nil {
		return err
	}
	done := make(chan outcome, 1)
	go func(c *child) {
		res, err := walk(c)
		done <- outcome{res, err}
	}(b)
	killAt := max(int(o.killFrac*float64(cfg.Users*cfg.StepsPerUser)), 1)
	preKill, err := awaitSteps(ctx, b.base, killAt, done)
	if err != nil {
		return err
	}
	fmt.Printf("soak: SIGKILL after %.0f steps, restarting on %s\n", preKill.Sum("subdex_step_duration_seconds_count"), b.spec.Addr)
	b.kill()
	// Same address: the retrying clients reconnect to the recovered
	// server without reconfiguration, exactly like a production restart
	// behind a stable endpoint.
	if b, err = start(b.spec); err != nil {
		return err
	}
	out := <-done
	if out.err != nil {
		return fmt.Errorf("phase B: %w (session store kept at %q)", out.err, variant.SessionDir)
	}
	final, err := workload.FetchMetrics(ctx, nil, b.base+"/metrics")
	b.kill()
	if err != nil {
		return fmt.Errorf("phase B scrape: %w", err)
	}

	facts := soakFacts{
		sessionsRecovered: final.Sum("subdex_sessions_recovered_total"),
		replayRecords:     final.Sum("subdex_wal_replay_records_total"),
		walTruncations:    final.Sum("subdex_wal_truncations_total"),
	}
	if err := concludeSoak(o, resA, out.res, facts); err != nil {
		return fmt.Errorf("%w (session store kept at %s)", err, variant.SessionDir)
	}
	if o.sessionDir == "" {
		os.RemoveAll(variant.SessionDir) // temp dir, and every check passed
	}
	return nil
}

// concludeSoak byte-compares the two phases' golden traces and closes the
// run on the verdict: phase B's counts, the -slo-* objectives, and the
// rows soakChecks derives.
func concludeSoak(o options, resA, resB *workload.Result, facts soakFacts) error {
	divergences := workload.DiffRuns(resA, resB)
	for _, d := range divergences[:min(len(divergences), 8)] {
		fmt.Fprintln(os.Stderr, "golden divergence:", d)
	}
	facts.goldenDivergences = len(divergences)
	rep := report(o, "soak-kill", resB)
	rep.Checks = append(rep.Checks, soakChecks(facts)...)
	return finish(os.Stdout, o, rep, resB, nil)
}

// awaitSteps polls the child's /metrics until the population has executed
// at least want steps (per subdex_step_duration_seconds_count) and returns
// that last scrape of the lifetime about to be killed. A walk that ends
// first is a configuration problem, not a pass: nothing was killed.
func awaitSteps(ctx context.Context, base string, want int, done <-chan outcome) (*workload.Scrape, error) {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case out := <-done:
			if out.err != nil {
				return nil, fmt.Errorf("phase B: %w", out.err)
			}
			return nil, usageError{fmt.Sprintf("workload finished before the kill threshold (%d steps); raise -steps or -think", want)}
		case <-tick.C:
		}
		// A failed scrape is transient: the child may still be binding.
		if s, err := workload.FetchMetrics(ctx, nil, base+"/metrics"); err == nil && int(s.Sum("subdex_step_duration_seconds_count")) >= want {
			return s, nil
		}
	}
}
