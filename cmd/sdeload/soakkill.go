// The kill-and-resume durability soak (-soak-kill): sdeload re-executes
// itself as a child server with a durable session store, SIGKILLs it
// mid-run, restarts it on the same address and store directory, and lets
// the workload's retrying clients ride the outage. The proof obligations:
//
//   - Zero golden-trace divergence: every user's recorded walk in the
//     killed-and-recovered run is byte-identical to the same seed's walk
//     against an uninterrupted baseline server. This exercises the whole
//     exactly-once chain — log-before-respond on the server, op-id dedup
//     on retry, deterministic WAL replay on boot.
//   - SLOs hold over the merged run (both process lifetimes' metrics
//     summed with Scrape.Merge).
//
// What the WAL costs a step is bench/'s to measure (serve_durable,
// sessionstore.append_ms), not this soak's to assert.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"

	"subdex/internal/server"
	"subdex/internal/sessionstore"
	"subdex/internal/workload"
)

// soakRetry is the transport retry policy soak clients run with: enough
// doubling-backoff attempts to ride a child restart (dataset rebuild +
// WAL replay) without giving up.
var soakRetry = workload.Retry{Attempts: 14, Backoff: 100 * time.Millisecond}

// recoveryReport is the benchReport section the soak adds.
type recoveryReport struct {
	// GoldenSteps is the number of byte-compared golden records;
	// GoldenDivergences must be zero.
	GoldenSteps       int `json:"golden_steps"`
	GoldenDivergences int `json:"golden_divergences"`
	// SessionsRecovered and ReplayRecords come from the restarted
	// lifetime's recovery counters; Truncations counts corrupt-tail cuts.
	SessionsRecovered float64 `json:"sessions_recovered"`
	ReplayRecords     float64 `json:"wal_replay_records"`
	Truncations       float64 `json:"wal_truncations"`
	// KilledAtSteps is the population step count observed just before the
	// SIGKILL fired.
	KilledAtSteps int    `json:"killed_at_steps"`
	SessionDir    string `json:"session_dir"`
}

// runChildServe is the hidden child mode: build the dataset, open the
// store when -session-dir is set, and serve until killed. The parent
// detects readiness by polling /metrics, so nothing is printed on a
// protocol; the child's only contract is the listen address it was given.
func runChildServe(o options) error {
	db, err := buildDataset(o)
	if err != nil {
		return err
	}
	var store sessionstore.Store
	if o.sessionDir != "" {
		fs, err := sessionstore.Open(o.sessionDir)
		if err != nil {
			return err
		}
		defer fs.Close()
		store = fs
	}
	srv, err := server.NewWithOptions(db, engineConfig(o), server.Options{Store: store})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", o.childAddr)
	if err != nil {
		return err
	}
	fmt.Printf("sdeload child: serving %s on %s (session-dir %q)\n", db.Name, ln.Addr(), o.sessionDir)
	return (&http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}).Serve(ln)
}

// runSoakKill orchestrates the two phases and the assertions.
func runSoakKill(ctx context.Context, o options) error {
	if o.target != "" {
		return usageError{"-soak-kill self-hosts its servers and cannot apply to an external -target"}
	}
	if o.mode != "inproc" && o.mode != "http" {
		return usageError{fmt.Sprintf("unknown -mode %q", o.mode)}
	}
	if o.duration > 0 {
		return usageError{"-soak-kill needs a fixed step budget for golden comparison; use -steps, not -duration"}
	}
	if o.faultEvery > 0 || o.stepTimeout > 0 {
		// Degraded and fault-cut steps depend on wall-clock phase timing,
		// which would make the baseline and durable walks legitimately
		// diverge — the soak proves recovery, not anytime behavior.
		return usageError{"-soak-kill requires deterministic steps; drop -fault-every and -step-timeout"}
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
	dir := o.sessionDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "sdeload-soak-*"); err != nil {
			return err
		}
	}

	factory := func(base string) workload.ClientFactory {
		return workload.HTTPRetryFactory(base, nil, sessMode, o.predicate, soakRetry)
	}

	// Phase A: uninterrupted baseline, no store. Its golden traces are the
	// ground truth.
	fmt.Println("soak-kill phase A: baseline (no session store)")
	addrA, err := pickAddr()
	if err != nil {
		return err
	}
	baseA, childA, err := startChild(ctx, exe, o, addrA, "")
	if err != nil {
		return err
	}
	resA, err := workload.Run(ctx, cfg, factory(baseA))
	childA.kill()
	if err != nil {
		return err
	}
	if fails := resA.Failures(); len(fails) != 0 {
		return fmt.Errorf("baseline run failed: %d user(s), e.g. %q", len(fails), fails[0])
	}

	// Phase B: durable server, SIGKILL at -kill-frac of the step budget,
	// restart on the same address and store, clients retry through.
	fmt.Printf("soak-kill phase B: durable server (session-dir %s), kill at %.0f%% of %d steps\n",
		dir, 100*o.killFrac, o.users*steps)
	addrB, err := pickAddr()
	if err != nil {
		return err
	}
	baseB, childB, err := startChild(ctx, exe, o, addrB, dir)
	if err != nil {
		return err
	}
	resCh := make(chan *workload.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := workload.Run(ctx, cfg, factory(baseB))
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()
	killAt := int(o.killFrac * float64(o.users*steps))
	if killAt < 1 {
		killAt = 1
	}
	preKill, killedAt, err := awaitSteps(ctx, baseB, killAt, resCh, errCh)
	if err != nil {
		childB.kill()
		return err
	}
	var resB *workload.Result
	if preKill != nil {
		fmt.Printf("soak-kill: SIGKILL after %d steps, restarting\n", killedAt)
		childB.kill()
		// Same address: the retrying clients reconnect to the recovered
		// server without reconfiguration, exactly like a production
		// restart behind a stable endpoint.
		if _, childB, err = startChild(ctx, exe, o, addrB, dir); err != nil {
			return err
		}
	} else {
		// The workload finished before the threshold — a configuration
		// problem (budget too small for the kill fraction), not a pass.
		childB.kill()
		return usageError{fmt.Sprintf("workload finished before the kill threshold (%d steps); raise -steps or lower -kill-frac", killAt)}
	}
	select {
	case resB = <-resCh:
	case err := <-errCh:
		childB.kill()
		return err
	case <-ctx.Done():
		childB.kill()
		return ctx.Err()
	}
	scrapeB2, err := workload.FetchMetrics(ctx, nil, baseB+"/metrics")
	childB.kill()
	if err != nil {
		return fmt.Errorf("post-recovery scrape: %w", err)
	}
	merged := preKill.Merge(scrapeB2)
	if fails := resB.Failures(); len(fails) != 0 {
		return fmt.Errorf("durable run failed: %d user(s), e.g. %q (session-dir kept at %s)", len(fails), fails[0], dir)
	}

	// Assertions: golden byte-identity, recovery actually happened, SLOs
	// over the merged lifetimes.
	goldenSteps, divergences := compareGolden(resA, resB)
	rec := &recoveryReport{
		GoldenSteps:       goldenSteps,
		GoldenDivergences: len(divergences),
		SessionsRecovered: scrapeB2.Sum("subdex_sessions_recovered_total"),
		ReplayRecords:     scrapeB2.Sum("subdex_wal_replay_records_total"),
		Truncations:       merged.Sum("subdex_wal_truncations_total"),
		KilledAtSteps:     killedAt,
		SessionDir:        dir,
	}

	rep := report(o, "soak-kill", resB, merged)
	rep.Recovery = rec
	rep.SLOChecks = append(rep.SLOChecks, soakChecks(rec)...)
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
		return fmt.Errorf("recovered run diverged from baseline in %d place(s) (session-dir kept at %s)", max, dir)
	}
	if !rep.SLOPass {
		return fmt.Errorf("SLO breach: %s (session-dir kept at %s)", describeBreaches(rep.SLOChecks), dir)
	}
	if o.sessionDir == "" {
		os.RemoveAll(dir) // temp dir, and every assertion passed
	}
	fmt.Printf("soak-kill pass: %d golden steps byte-identical across kill+restart, %0.f sessions recovered\n",
		goldenSteps, rec.SessionsRecovered)
	return nil
}

// soakChecks renders the soak's extra objectives as SLO rows so they ride
// the same reporting and pass/fail machinery.
func soakChecks(rec *recoveryReport) []sloCheck {
	return []sloCheck{
		{Name: "golden_divergences", Limit: 0, Got: float64(rec.GoldenDivergences),
			Pass: rec.GoldenDivergences == 0},
		{Name: "sessions_recovered_min", Limit: 1, Got: rec.SessionsRecovered,
			Pass: rec.SessionsRecovered >= 1},
		{Name: "wal_replay_records_min", Limit: 1, Got: rec.ReplayRecords,
			Pass: rec.ReplayRecords >= 1},
	}
}

// compareGolden byte-compares the two runs user by user and returns the
// total record count plus human-readable divergences (empty on identity).
func compareGolden(base, got *workload.Result) (int, []string) {
	var total int
	var out []string
	n := len(base.Users)
	if len(got.Users) < n {
		n = len(got.Users)
	}
	for i := 0; i < n; i++ {
		want, have := base.Users[i].Records, got.Users[i].Records
		total += len(want)
		wb, err1 := workload.MarshalGolden(want)
		gb, err2 := workload.MarshalGolden(have)
		if err1 != nil || err2 != nil {
			out = append(out, fmt.Sprintf("user %d: marshal failed: %v %v", i, err1, err2))
			continue
		}
		if bytes.Equal(wb, gb) {
			continue
		}
		for _, d := range workload.DiffRecords(want, have) {
			out = append(out, fmt.Sprintf("user %d: %s", i, d))
		}
	}
	return total, out
}

// awaitSteps polls the child's /metrics until the population has executed
// at least want steps (per subdex_steps_total), then returns the final
// pre-kill scrape. A result arriving first returns (nil, steps, nil) —
// the workload outran the threshold.
func awaitSteps(ctx context.Context, base string, want int, resCh chan *workload.Result, errCh chan error) (*workload.Scrape, int, error) {
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case err := <-errCh:
			return nil, 0, err
		case res := <-resCh:
			resCh <- res // put it back for the caller
			return nil, res.Steps, nil
		case <-t.C:
		}
		s, err := workload.FetchMetrics(ctx, nil, base+"/metrics")
		if err != nil {
			continue // transient: the child may still be binding
		}
		steps := int(s.Sum("subdex_steps_total"))
		if steps >= want {
			return s, steps, nil
		}
	}
}

// child is one spawned server process.
type child struct{ cmd *exec.Cmd }

// kill SIGKILLs the child and reaps it. Idempotent enough for the soak's
// error paths: a second kill of a reaped process is a no-op error.
func (c *child) kill() {
	if c == nil || c.cmd == nil || c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Kill()
	_, _ = c.cmd.Process.Wait()
}

// startChild spawns this binary in child-serve mode on addr and waits
// for readiness. A restart passes its predecessor's address so retrying
// clients reconnect without reconfiguration.
func startChild(ctx context.Context, exe string, o options, addr, dir string) (string, *child, error) {
	args := []string{
		"-child-serve", "-child-addr", addr,
		"-generate", o.generate,
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-seed", strconv.FormatInt(o.seed, 10),
		"-session-dir", dir,
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
		return "", nil, fmt.Errorf("child server on %s never became ready: %w", addr, err)
	}
	return base, &child{cmd: cmd}, nil
}

// pickAddr reserves a loopback port by binding and releasing it, so a
// restarted child can listen on the address its predecessor used.
func pickAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// waitReady polls /healthz until the child answers (a restarted child
// replays its WAL through the engine before serving, so this also covers
// recovery time).
func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	var lastErr error = errors.New("not attempted")
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return lastErr
}
