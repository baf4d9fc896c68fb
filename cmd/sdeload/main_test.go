package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/gen"
	"subdex/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/verdict.golden.json")

// TestMain lets the test binary stand in for sdeload's re-executed soak
// children: spawn runs os.Executable() with SDELOAD_CHILD set.
func TestMain(m *testing.M) {
	childMain()
	os.Exit(m.Run())
}

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

// readVerdict decodes the artifact a run wrote.
func readVerdict(t *testing.T, path string) verdict {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep verdict
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// row finds a check by name.
func row(t *testing.T, rep *verdict, name string) check {
	t.Helper()
	for _, c := range rep.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("verdict has no %q row: %+v", name, rep.Checks)
	return check{}
}

func TestAssertSLOs(t *testing.T) {
	res := &workload.Result{Steps: 8, Degraded: 2}
	res.Errors.Busy = 2
	o := options{sloMinSteps: 1, sloErrRate: -1, sloDegRate: 0.5}
	rep := report(o, "inproc", res)
	if err := finish(&bytes.Buffer{}, o, rep, res, nil); err != nil || !rep.Pass || len(rep.Checks) != 2 {
		t.Fatalf("lenient SLOs failed: err=%v checks=%+v", err, rep.Checks)
	}
	// A zero error-rate limit must still be an active check.
	o = options{sloMinSteps: 1, sloErrRate: 0, sloDegRate: -1}
	rep = report(o, "inproc", res)
	err := finish(&bytes.Buffer{}, o, rep, res, nil)
	if err == nil || rep.Pass || !strings.Contains(err.Error(), "error_rate got 0.2 limit 0") {
		t.Fatalf("strict SLOs passed: err=%v checks=%+v", err, rep.Checks)
	}
	if c := row(t, rep, "error_rate"); c.Pass {
		t.Errorf("error_rate limit 0 not enforced: %+v", rep.Checks)
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
	runReport := func(t *testing.T, o options) verdict {
		t.Helper()
		o.generate, o.scale, o.seed = "demo", 1, 1
		o.users, o.steps, o.faultDelay = 1, 3, delay
		o.sloErrRate, o.sloDegRate = -1, -1
		o.benchout = filepath.Join(t.TempDir(), "verdict.json")
		if err := run(context.Background(), o); err != nil {
			t.Fatal(err)
		}
		return readVerdict(t, o.benchout)
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
	rep := report(options{generate: "demo", scale: 1, seed: 1, users: 4,
		sloMinSteps: 1, sloErrRate: 1, sloDegRate: 1}, "inproc", res)
	if got := row(t, rep, "degraded_rate").Got; got != 0.25 {
		t.Errorf("degraded rate: want 0.25, got %v", got)
	}
	if got := row(t, rep, "error_rate").Got; got != 0.2 { // 2 errors over 10 operations
		t.Errorf("error rate: want 0.2, got %v", got)
	}
	if c := row(t, rep, "min_steps"); !c.Pass {
		t.Errorf("min_steps should pass with 8 steps: %+v", rep.Checks)
	}
}

// TestRunSLOBreachDumpsFlightRecorder induces an SLO breach end to end
// and requires exactly one rate-limited flight-recorder dump under
// -flight-dir, wide events with trace IDs inside it, and a verdict
// carrying exemplars that resolve the slowest steps.
func TestRunSLOBreachDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	o := options{
		generate: "demo", scale: 1, seed: 1, mode: "inproc", sessionMode: "rp",
		users: 2, steps: 3,
		sloErrRate: -1, sloDegRate: -1,
		sloMinSteps: 1 << 30, // unreachable: a guaranteed breach
		benchout:    filepath.Join(dir, "verdict.json"),
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

	rep := readVerdict(t, o.benchout)
	if len(rep.Exemplars) == 0 {
		t.Fatal("verdict carries no exemplars")
	}
	for _, e := range rep.Exemplars {
		if e.TraceID == "" || e.Profile == nil {
			t.Fatalf("exemplar missing trace ID or profile: %+v", e)
		}
	}
	if rep.FlightDump != dumps[0] {
		t.Fatalf("verdict flight_dump %q != dump %q", rep.FlightDump, dumps[0])
	}
	if rep.GoVersion == "" || rep.Version == "" || rep.Commit == "" {
		t.Fatalf("verdict missing build info: %+v", rep)
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
	if !errors.As(err, &ue) {
		t.Fatalf("expected usage error, got %v", err)
	}
}

// TestSoakProduct runs the product neither old mode could: a durable,
// coordinator-backed child server over one worker child, SIGKILLed and
// restarted mid-walk, against a plain child server — at demo scale, with
// think pacing so the kill lands inside the walk.
func TestSoakProduct(t *testing.T) {
	o := options{
		generate: "demo", scale: 1, seed: 1, sessionMode: "rp",
		users: 2, steps: 4, think: 150 * time.Millisecond,
		sloMinSteps: 8, sloErrRate: -1, sloDegRate: -1,
		soakKill: true, killFrac: 0.4, sessionDir: t.TempDir(),
		clusterSoak: true, clusterNodes: 1,
		benchout: filepath.Join(t.TempDir(), "verdict.json"),
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	rep := readVerdict(t, o.benchout)
	if !rep.Pass || rep.Mode != "soak-kill+cluster-soak" || rep.Steps != 8 {
		t.Fatalf("verdict: pass=%v mode=%q steps=%d", rep.Pass, rep.Mode, rep.Steps)
	}
	for _, name := range []string{"min_steps", "golden_divergences", "sessions_recovered_min",
		"wal_replay_records_min", "digests_identical", "partitions_lost"} {
		if c := row(t, &rep, name); !c.Pass {
			t.Errorf("%s failed: %+v", name, c)
		}
	}
}

// TestSoakChecksByVariant pins which objectives each variant asserts, and
// that each one fails on the fact that breaks its property.
func TestSoakChecksByVariant(t *testing.T) {
	healthy := soakFacts{sessionsRecovered: 2, replayRecords: 9, digestsIdentical: true}
	names := func(cs []check) string {
		var out []string
		for _, c := range cs {
			if !c.Pass {
				t.Errorf("healthy facts fail %+v", c)
			}
			out = append(out, c.Name)
		}
		return strings.Join(out, " ")
	}
	for _, tc := range []struct {
		kill, clustered bool
		want            string
	}{
		{false, false, "golden_divergences"},
		{true, false, "golden_divergences sessions_recovered_min wal_replay_records_min"},
		{false, true, "golden_divergences digests_identical partitions_lost"},
		{true, true, "golden_divergences sessions_recovered_min wal_replay_records_min digests_identical partitions_lost"},
	} {
		if got := names(soakChecks(tc.kill, tc.clustered, healthy)); got != tc.want {
			t.Errorf("kill=%v cluster=%v asserts %q, want %q", tc.kill, tc.clustered, got, tc.want)
		}
	}
	for name, broken := range map[string]soakFacts{
		"golden_divergences":     {goldenDivergences: 1, sessionsRecovered: 2, replayRecords: 9, digestsIdentical: true},
		"sessions_recovered_min": {replayRecords: 9, digestsIdentical: true},
		"wal_replay_records_min": {sessionsRecovered: 2, digestsIdentical: true},
		"digests_identical":      {sessionsRecovered: 2, replayRecords: 9},
		"partitions_lost":        {sessionsRecovered: 2, replayRecords: 9, digestsIdentical: true, partitionsLost: 1},
	} {
		for _, c := range soakChecks(true, true, broken) {
			if c.Pass != (c.Name != name) {
				t.Errorf("facts breaking %s: row %+v", name, c)
			}
		}
	}
}

// recordedWalk runs the soak's population in process: two users' golden
// traces on demo data, without the child processes.
func recordedWalk(t *testing.T) *workload.Result {
	t.Helper()
	db, err := gen.ByName("demo", gen.Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(context.Background(),
		workload.Config{Users: 2, Seed: 1, StepsPerUser: 3, Record: true},
		workload.InprocFactory(ex, core.RecommendationPowered, ""))
	if err != nil || len(res.Failures()) != 0 {
		t.Fatalf("walk: %v %v", err, res.Failures())
	}
	return res
}

// TestSoakTamperedGoldenFails is the negative case: a flipped digest in
// one record of phase B and a renumbered step in another fail the verdict,
// and the failure names golden_divergences in the error and in checks[].
func TestSoakTamperedGoldenFails(t *testing.T) {
	resA, resB := recordedWalk(t), recordedWalk(t)
	o := options{generate: "demo", scale: 1, seed: 1, users: 2, soakKill: true,
		sloMinSteps: 1, sloErrRate: -1, sloDegRate: -1,
		benchout: filepath.Join(t.TempDir(), "verdict.json")}
	facts := soakFacts{sessionsRecovered: 2, replayRecords: 9}
	if err := concludeSoak(o, "soak-kill", resA, resB, facts); err != nil {
		t.Fatalf("identical walks: %v", err)
	}
	resB.Users[1].Records[2].MapDigests[0] += "x"
	// A field DiffRecords does not itemize still breaks byte identity.
	resB.Users[0].Records[0].Event.Step = 99
	err := concludeSoak(o, "soak-kill", resA, resB, facts)
	if err == nil || !strings.Contains(err.Error(), "golden_divergences got 2 limit 0") {
		t.Fatalf("tampered records: err = %v", err)
	}
	rep := readVerdict(t, o.benchout)
	if c := row(t, &rep, "golden_divergences"); rep.Pass || c.Pass || c.Got != 2 {
		t.Fatalf("tampered records: pass=%v row=%+v", rep.Pass, c)
	}
	for _, c := range rep.Checks {
		if c.Name != "golden_divergences" && !c.Pass {
			t.Errorf("unrelated row failed: %+v", c)
		}
	}
}

// TestVerdictGolden pins the one artifact schema — field names, order and
// the shape of a check row — on a product soak's verdict with fixed
// inputs. Regenerate with -update when the schema changes on purpose.
func TestVerdictGolden(t *testing.T) {
	res := &workload.Result{Steps: 20, Degraded: 1, Wall: 1500 * time.Millisecond,
		Exemplars: []workload.Exemplar{{User: 1, Step: 3, Op: "step", DurationMS: 12.5,
			TraceID: "0af7651916cd43dd8448eb211c80319c"}}}
	res.Errors.Busy = 1
	o := options{generate: "yelp", scale: 0.5, seed: 7, users: 4,
		sloMinSteps: 20, sloErrRate: 0.1, sloDegRate: -1, soakKill: true, clusterSoak: true,
		benchout: filepath.Join(t.TempDir(), "verdict.json")}
	rep := report(o, "soak-kill+cluster-soak", res)
	rep.Checks = append(rep.Checks, soakChecks(true, true,
		soakFacts{sessionsRecovered: 4, replayRecords: 31, digestsIdentical: true, partitionsLost: 2})...)
	rep.FlightDump = "flightrec/sdeload-001-slo_breach.jsonl"
	rep.Version, rep.Commit, rep.GoVersion = "v0.0.0-test", "0123abc", "go1.x"
	if err := finish(&bytes.Buffer{}, o, rep, res, nil); err == nil || !strings.Contains(err.Error(), "partitions_lost") {
		t.Fatalf("a lost partition must fail the verdict, got %v", err)
	}
	got, err := os.ReadFile(o.benchout)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/verdict.golden.json"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("verdict schema drifted from %s:\n%s", golden, got)
	}
}
