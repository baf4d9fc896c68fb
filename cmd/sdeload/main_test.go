package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/workload"
)

func TestParseSessionMode(t *testing.T) {
	for token, want := range map[string]core.Mode{
		"ud": core.UserDriven, "rp": core.RecommendationPowered, "fa": core.FullyAutomated,
	} {
		got, err := parseSessionMode(token)
		if err != nil || got != want {
			t.Errorf("parseSessionMode(%q) = %v, %v", token, got, err)
		}
	}
	if _, err := parseSessionMode("nope"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestAssertSLOs(t *testing.T) {
	rep := &benchReport{Steps: 10, P95Ms: 50, P99Ms: 90, ErrRate: 0.1, DegradedRate: 0.2}
	checks, pass := assertSLOs(options{sloMinSteps: 1, sloP95: 100 * time.Millisecond,
		sloErrRate: -1, sloDegRate: -1}, rep)
	if !pass || len(checks) != 2 {
		t.Fatalf("lenient SLOs failed: pass=%v checks=%+v", pass, checks)
	}
	checks, pass = assertSLOs(options{sloMinSteps: 1, sloP99: 50 * time.Millisecond,
		sloErrRate: 0, sloDegRate: -1}, rep)
	if pass {
		t.Fatalf("strict SLOs passed: %+v", checks)
	}
	if got := describeBreaches(checks); got == "" {
		t.Error("describeBreaches empty for failing checks")
	}
	// A zero error-rate limit must still be an active check.
	found := false
	for _, c := range checks {
		if c.Name == "error_rate" && !c.Pass {
			found = true
		}
	}
	if !found {
		t.Errorf("error_rate limit 0 not enforced: %+v", checks)
	}
}

func TestFaultHook(t *testing.T) {
	if faultHook(0, time.Millisecond) != nil {
		t.Error("faultHook(0) should disable injection")
	}
	hook := faultHook(1, time.Millisecond)
	if hook == nil {
		t.Fatal("faultHook(1) returned nil")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	hook(ctx, 0) // cancelled context: returns without the full stall
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("hook ignored context cancellation (%v)", elapsed)
	}
}

// TestRunFaultEveryInjects drives run() end to end with the fault
// injector on: the hook must reach the engine the run hosts, in both
// self-hosted modes, and show up as wall time and as degraded steps.
func TestRunFaultEveryInjects(t *testing.T) {
	const delay = 30 * time.Millisecond
	runReport := func(t *testing.T, o options) benchReport {
		t.Helper()
		o.generate, o.scale, o.seed = "demo", 1, 1
		o.users, o.steps, o.faultDelay = 1, 3, delay
		o.sloErrRate, o.sloDegRate = -1, -1
		o.benchout = filepath.Join(t.TempDir(), "BENCH_serving.json")
		if err := run(context.Background(), o); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(o.benchout)
		if err != nil {
			t.Fatal(err)
		}
		var rep benchReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, mode := range []string{"inproc", "http"} {
		t.Run(mode, func(t *testing.T) {
			// User-Driven steps are one engine call each, so a stall on
			// every phase entry is a floor of one delay per step.
			rep := runReport(t, options{mode: mode, sessionMode: "ud", faultEvery: 1})
			if min := float64(rep.Steps) * delay.Seconds(); rep.Steps != 3 || rep.WallSecs < min {
				t.Errorf("%d steps in %.3fs: every step should have stalled %v", rep.Steps, rep.WallSecs, delay)
			}
			// Every second phase entry: the step's own scan runs, the first
			// candidate of its recommendation pass stalls past the deadline,
			// and the step degrades instead of failing.
			rep = runReport(t, options{mode: mode, sessionMode: "rp", faultEvery: 2,
				stepTimeout: 5 * time.Millisecond})
			if rep.Degraded == 0 {
				t.Errorf("no degraded step under a 5ms deadline and %v stalls: %+v", delay, rep)
			}
		})
	}
}

func TestReportRates(t *testing.T) {
	res := &workload.Result{Steps: 8, Degraded: 2, Wall: time.Second}
	res.Errors.Busy = 2
	s, err := workload.ParseMetrics(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	rep := report(options{generate: "demo", scale: 1, seed: 1, users: 4,
		sloMinSteps: 1, sloErrRate: -1, sloDegRate: -1}, "inproc", res, s)
	if rep.StepsPerS != 8 {
		t.Errorf("throughput: want 8, got %v", rep.StepsPerS)
	}
	if rep.DegradedRate != 0.25 {
		t.Errorf("degraded rate: want 0.25, got %v", rep.DegradedRate)
	}
	if rep.ErrRate != 0.2 { // 2 errors over 10 operations
		t.Errorf("error rate: want 0.2, got %v", rep.ErrRate)
	}
	if !rep.SLOPass {
		t.Errorf("min_steps should pass with 8 steps: %+v", rep.SLOChecks)
	}
}

// TestRunSLOBreachDumpsFlightRecorder induces an SLO breach end to end
// and requires exactly one rate-limited flight-recorder dump under
// -flight-dir, wide events with trace IDs inside it, and a bench
// artifact carrying exemplars that resolve the slowest steps.
func TestRunSLOBreachDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCH_serving.json")
	o := options{
		generate: "demo", scale: 1, seed: 1, mode: "inproc", sessionMode: "rp",
		users: 2, steps: 3,
		sloErrRate: -1, sloDegRate: -1,
		sloMinSteps: 1 << 30, // unreachable: a guaranteed breach
		benchout:    bench,
		flightDir:   dir,
		exemplars:   3,
	}
	err := run(context.Background(), o)
	if err == nil || !strings.Contains(err.Error(), "SLO breach") {
		t.Fatalf("expected SLO breach error, got %v", err)
	}

	dumps, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("expected exactly one flight-recorder dump, got %v", dumps)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("dump has no events beyond the header:\n%s", raw)
	}
	if !strings.Contains(lines[0], `"slo_breach"`) {
		t.Fatalf("dump header missing reason: %s", lines[0])
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("dump event not JSON: %v", err)
	}
	if tid, _ := ev["trace_id"].(string); tid == "" {
		t.Fatalf("dump event carries no trace_id: %s", lines[1])
	}

	var rep benchReport
	raw, err = os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Exemplars) == 0 {
		t.Fatal("bench artifact carries no exemplars")
	}
	for _, e := range rep.Exemplars {
		if e.TraceID == "" || e.Profile == nil {
			t.Fatalf("exemplar missing trace ID or profile: %+v", e)
		}
	}
	if rep.FlightDump != dumps[0] {
		t.Fatalf("bench artifact flight_dump %q != dump %q", rep.FlightDump, dumps[0])
	}
	if rep.GoVersion == "" || rep.Version == "" || rep.Commit == "" {
		t.Fatalf("bench artifact missing build info: %+v", rep)
	}
}

// TestRunTargetRejectsFlightDir pins the flag validation: -flight-dir
// dumps a self-hosted recorder and cannot apply to an external target.
func TestRunTargetRejectsFlightDir(t *testing.T) {
	err := run(context.Background(), options{
		generate: "demo", scale: 1, seed: 1, sessionMode: "rp",
		target: "http://127.0.0.1:1", flightDir: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "flight-dir") {
		t.Fatalf("expected -flight-dir usage error, got %v", err)
	}
	var ue usageError
	if !errorsAs(err, &ue) {
		t.Fatalf("expected usage error, got %v", err)
	}
}
