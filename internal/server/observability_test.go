package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"subdex/internal/engine"
	"subdex/internal/obs"
)

// stepURL builds a session's step endpoint.
func stepURL(ts *httptest.Server, id int, query string) string {
	return fmt.Sprintf("%s/sessions/%d/step%s", ts.URL, id, query)
}

// createSession posts a session and returns its id.
func createSession(t *testing.T, ts *httptest.Server, mode string) int {
	t.Helper()
	resp, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": mode})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, created)
	}
	return int(created["id"].(float64))
}

// getStep fetches one step with an optional traceparent header, returning
// the decoded payload and the response traceparent.
func getStep(t *testing.T, url, traceparent string) (*StepJSON, string, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var step StepJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &step); err != nil {
			t.Fatalf("decode step: %v\n%s", err, body)
		}
	}
	return &step, resp.Header.Get("traceparent"), resp.StatusCode
}

// TestTraceparentMiddleware pins W3C trace-context propagation: an
// incoming traceparent's trace ID binds the request (response header,
// step payload); without one the server mints a valid ID; a malformed
// header falls back to minting rather than failing the request.
func TestTraceparentMiddleware(t *testing.T) {
	_, ts := testServerWith(t, lightConfig(), Options{})
	id := createSession(t, ts, "ud")

	tid := obs.DeriveTraceID(7, 7, 7)
	step, echoed, code := getStep(t, stepURL(ts, id, ""), obs.Traceparent(tid, string(obs.NewSpanID())))
	if code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	if step.TraceID != string(tid) {
		t.Fatalf("step trace_id %q, want %q", step.TraceID, tid)
	}
	if got, _, ok := obs.ParseTraceparent(echoed); !ok || got != tid {
		t.Fatalf("response traceparent %q does not carry trace %s", echoed, tid)
	}

	// No header: the server mints and reports a valid ID.
	step, echoed, code = getStep(t, stepURL(ts, id, ""), "")
	if code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	if !obs.TraceID(step.TraceID).Valid() {
		t.Fatalf("minted trace_id %q invalid", step.TraceID)
	}
	if got, _, ok := obs.ParseTraceparent(echoed); !ok || string(got) != step.TraceID {
		t.Fatalf("response traceparent %q does not match minted trace %s", echoed, step.TraceID)
	}

	// Malformed header: minted, never echoed back verbatim.
	step, _, code = getStep(t, stepURL(ts, id, ""), "00-zzz-1-01")
	if code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	if !obs.TraceID(step.TraceID).Valid() {
		t.Fatalf("trace_id %q after malformed header", step.TraceID)
	}
}

// TestExplainQuery pins the per-step EXPLAIN contract: no profile
// without ?explain=1, and a populated one — including the cache-hit
// shape on a revisited selection — with it.
func TestExplainQuery(t *testing.T) {
	cfg := lightConfig()
	// An unpruned scan makes the step's accumulator cacheable, so the
	// second step at the same selection is a deterministic cache hit.
	cfg.Engine.Pruning = engine.PruneNone
	_, ts := testServerWith(t, cfg, Options{})
	id := createSession(t, ts, "ud")

	step, _, code := getStep(t, stepURL(ts, id, "?explain=1"), "")
	if code != http.StatusOK {
		t.Fatalf("explain step: %d", code)
	}
	p := step.Profile
	if p == nil || p.Engine == nil {
		t.Fatalf("explain=1 must populate the profile, got %+v", p)
	}
	if p.TraceID != step.TraceID {
		t.Fatalf("profile trace %q != step trace %q", p.TraceID, step.TraceID)
	}
	if p.Engine.Cache != "miss" {
		t.Fatalf("first step cache %q, want miss", p.Engine.Cache)
	}
	if p.Engine.RecordsScanned == 0 || p.GroupSize == 0 || p.GenMS <= 0 {
		t.Fatalf("first-step profile not populated: %+v", p.Engine)
	}

	step, _, code = getStep(t, stepURL(ts, id, "?explain=1"), "")
	if code != http.StatusOK {
		t.Fatalf("second explain step: %d", code)
	}
	p = step.Profile
	if p == nil || p.Engine == nil || p.Engine.Cache != "hit" {
		t.Fatalf("revisited selection must profile as cache hit, got %+v", p)
	}
	if p.Engine.RecordsScanned != 0 {
		t.Fatalf("cache hit scanned %d records, want 0", p.Engine.RecordsScanned)
	}
	if p.RecordsProcessed == 0 {
		t.Fatal("cache hit must still report the records the result represents")
	}

	// Without ?explain=1 the payload stays profile-free.
	step, _, code = getStep(t, stepURL(ts, id, ""), "")
	if code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	if step.Profile != nil {
		t.Fatal("profile returned without ?explain=1")
	}
}

// TestExplainDegradedStep pins the degraded EXPLAIN shape: a step cut by
// the deadline reports degraded=true with a non-empty reason.
func TestExplainDegradedStep(t *testing.T) {
	cfg := lightConfig()
	cfg.StepTimeout = 50 * time.Millisecond
	cfg.Engine.MinPhaseRecords = 1
	cfg.Engine.PhaseHook = func(ctx context.Context, phase int) {
		if phase > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Second): // bounds the test on regression
			}
		}
	}
	_, ts := testServerWith(t, cfg, Options{})
	id := createSession(t, ts, "ud")

	step, _, code := getStep(t, stepURL(ts, id, "?explain=1"), "")
	if code != http.StatusOK {
		t.Fatalf("step: %d (first phase should finish inside 50ms)", code)
	}
	if !step.Degraded {
		t.Fatal("stalled step must degrade")
	}
	p := step.Profile
	if p == nil || !p.Degraded {
		t.Fatalf("degraded step must profile as degraded, got %+v", p)
	}
	if p.DegradedReason == "" {
		t.Fatal("degraded profile must carry a reason")
	}
	if p.Engine == nil || p.Engine.DegradedReason != p.DegradedReason {
		t.Fatalf("engine reason mismatch: %+v", p)
	}
}

// TestDebugSpansFilters pins the ?trace= and ?limit= filters and the
// 400 contract on a malformed limit.
func TestDebugSpansFilters(t *testing.T) {
	_, ts := testServerWith(t, lightConfig(), Options{})
	id := createSession(t, ts, "ud")

	tids := make([]obs.TraceID, 3)
	for i := range tids {
		tids[i] = obs.DeriveTraceID(9, uint64(i), 1)
		if _, _, code := getStep(t, stepURL(ts, id, ""), obs.Traceparent(tids[i], string(obs.NewSpanID()))); code != http.StatusOK {
			t.Fatalf("step %d: %d", i, code)
		}
	}

	// Limit first: the ring has not yet seen any /debug request (a request
	// span is collected only when it finishes), so the newest roots are
	// the steps, newest first.
	var out struct {
		Spans []*obs.SpanData `json:"spans"`
	}
	resp := getJSON(t, ts.URL+"/debug/spans?limit=2", &out)
	if resp.StatusCode != http.StatusOK || len(out.Spans) != 2 {
		t.Fatalf("limit filter: %d, %d spans (want 2)", resp.StatusCode, len(out.Spans))
	}
	if out.Spans[0].TraceID != tids[2] || out.Spans[1].TraceID != tids[1] {
		t.Fatalf("limit filter order: got %s,%s first, want %s,%s",
			out.Spans[0].TraceID, out.Spans[1].TraceID, tids[2], tids[1])
	}

	out.Spans = nil
	resp = getJSON(t, ts.URL+"/debug/spans?trace="+string(tids[1]), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace filter: %d", resp.StatusCode)
	}
	if len(out.Spans) != 1 || out.Spans[0].TraceID != tids[1] {
		t.Fatalf("trace filter returned %+v, want exactly the trace-%s root", out.Spans, tids[1])
	}

	for _, bad := range []string{"?limit=-1", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/debug/spans" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestFlightRecorderEndpointAndDegradedDump drives repeated degraded
// steps against a dump-enabled server: the live ring serves every wide
// event (filterable by trace), but the trigger rate limit admits exactly
// one dump — no profile-dump storms — and the counters account for the
// suppressed rest.
func TestFlightRecorderEndpointAndDegradedDump(t *testing.T) {
	dir := t.TempDir()
	cfg := lightConfig()
	cfg.StepTimeout = 50 * time.Millisecond
	cfg.Engine.MinPhaseRecords = 1
	cfg.Engine.PhaseHook = func(ctx context.Context, phase int) {
		if phase > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Second):
			}
		}
	}
	_, ts := testServerWith(t, cfg, Options{FlightDir: dir, FlightMinInterval: time.Hour})
	id := createSession(t, ts, "ud")

	const steps = 4
	tids := make([]obs.TraceID, steps)
	for i := range tids {
		tids[i] = obs.DeriveTraceID(13, uint64(i), 1)
		step, _, code := getStep(t, stepURL(ts, id, ""), obs.Traceparent(tids[i], string(obs.NewSpanID())))
		if code != http.StatusOK || !step.Degraded {
			t.Fatalf("step %d: code %d degraded %v", i, code, step.Degraded)
		}
	}

	// Live ring: every step is there; the trace filter isolates one.
	var out struct {
		Events       []map[string]any `json:"events"`
		Dumps        int              `json:"dumps"`
		Suppressed   int              `json:"suppressed"`
		DumpsEnabled bool             `json:"dumps_enabled"`
	}
	resp := getJSON(t, ts.URL+"/debug/flightrecorder", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrecorder: %d", resp.StatusCode)
	}
	if len(out.Events) != steps || !out.DumpsEnabled {
		t.Fatalf("ring holds %d events (want %d), enabled=%v", len(out.Events), steps, out.DumpsEnabled)
	}
	if out.Dumps != 1 || out.Suppressed != steps-1 {
		t.Fatalf("dumps=%d suppressed=%d, want 1 and %d", out.Dumps, out.Suppressed, steps-1)
	}
	out.Events = nil
	getJSON(t, ts.URL+"/debug/flightrecorder?trace="+string(tids[2]), &out)
	if len(out.Events) != 1 {
		t.Fatalf("trace filter returned %d events, want 1", len(out.Events))
	}
	ev := out.Events[0]
	if ev["trace_id"] != string(tids[2]) || ev["degraded"] != true || ev["op"] != "step" {
		t.Fatalf("wide event shape: %+v", ev)
	}

	// Exactly one dump on disk despite four degraded steps.
	dumps, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("dump storm: %v, want exactly one dump", dumps)
	}
	if !strings.Contains(filepath.Base(dumps[0]), "degraded_step") {
		t.Fatalf("dump %q not named for its trigger reason", dumps[0])
	}

	text := metricsText(t, ts)
	for _, want := range []string{
		"subdex_flight_dumps_total 1",
		fmt.Sprintf("subdex_flight_dumps_suppressed_total %d", steps-1),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBuildInfo pins satellite discoverability: the subdex_build_info
// gauge (value 1, version/commit/go_version labels) and the same fields
// echoed in /healthz.
func TestBuildInfo(t *testing.T) {
	_, ts := testServerWith(t, lightConfig(), Options{})

	var hz map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &hz)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	for _, key := range []string{"version", "commit", "go_version"} {
		if hz[key] == "" {
			t.Errorf("healthz missing %q: %v", key, hz)
		}
	}
	if !strings.HasPrefix(hz["go_version"], "go") {
		t.Errorf("go_version %q does not name a Go release", hz["go_version"])
	}

	text := metricsText(t, ts)
	idx := strings.Index(text, "subdex_build_info{")
	if idx < 0 {
		t.Fatalf("metrics missing subdex_build_info gauge:\n%s", text)
	}
	line := text[idx:]
	if nl := strings.IndexByte(line, '\n'); nl >= 0 {
		line = line[:nl]
	}
	for _, want := range []string{
		`version="` + hz["version"] + `"`,
		`commit="` + hz["commit"] + `"`,
		`go_version="` + hz["go_version"] + `"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("build_info line %q missing %q", line, want)
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Errorf("build_info gauge must read 1: %q", line)
	}
}
