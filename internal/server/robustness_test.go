package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/gen"
)

// testServerWith builds a server with explicit core config and session
// options, returning both the Server (for direct janitor/metrics access)
// and its httptest wrapper.
func testServerWith(t *testing.T, cfg core.Config, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	db, err := gen.Yelp(gen.Config{Seed: 2, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptionsCtx(context.Background(), db, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// lightConfig keeps steps cheap for handler-level tests.
func lightConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RecSampleSize = 300
	cfg.Limits.MaxCandidates = 20
	return cfg
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestConcurrentStepApplyConflict hammers one session with concurrent
// step and apply requests while the first step is deterministically held
// inside the engine (via the PhaseHook fault-injection seam): exactly one
// request must win the per-session lock (200), every other one must be
// rejected immediately with 409 instead of queueing behind the compute.
// Run under -race this also proves step state is never accessed
// concurrently.
func TestConcurrentStepApplyConflict(t *testing.T) {
	const concurrent = 8 // requests issued while the winner is mid-step

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := lightConfig()
	cfg.Engine.MinPhaseRecords = 1
	cfg.Engine.PhaseHook = func(ctx context.Context, phase int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	_, ts := testServerWith(t, cfg, Options{})

	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))
	stepURL := fmt.Sprintf("%s/sessions/%d/step", ts.URL, id)
	applyURL := fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id)

	var ok200, busy409, other atomic.Int64
	count := func(code int) {
		switch code {
		case http.StatusOK:
			ok200.Add(1)
		case http.StatusConflict:
			busy409.Add(1)
		default:
			other.Add(1)
		}
	}

	// The winner: blocks inside the engine until released.
	var wgWinner sync.WaitGroup
	wgWinner.Add(1)
	go func() {
		defer wgWinner.Done()
		resp, err := http.Get(stepURL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		count(resp.StatusCode)
	}()
	<-entered // the winner now holds the session lock inside the engine

	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp *http.Response
			var err error
			if i%2 == 0 {
				resp, err = http.Get(stepURL)
			} else {
				resp, err = http.Post(applyURL, "application/json",
					strings.NewReader(`{"predicate":"reviewers.gender = 'female'"}`))
			}
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			count(resp.StatusCode)
		}(i)
	}
	wg.Wait()
	close(release)
	wgWinner.Wait()

	if got := ok200.Load(); got != 1 {
		t.Errorf("200s = %d, want exactly 1", got)
	}
	if got := busy409.Load(); got != concurrent {
		t.Errorf("409s = %d, want %d", got, concurrent)
	}
	if got := other.Load(); got != 0 {
		t.Errorf("unexpected statuses: %d", got)
	}
	if text := metricsText(t, ts); !strings.Contains(text,
		fmt.Sprintf("subdex_session_busy_rejections_total %d", concurrent)) {
		t.Errorf("busy-rejection counter missing/wrong:\n%s", grepMetric(text, "busy"))
	}
}

// TestStepDeadlineAnytime is the acceptance scenario: with a 1ms step
// deadline against a generated yelp dataset (phase 1 deterministically
// stalled until the deadline via the PhaseHook seam), a step answers 200
// with "degraded": true — or 504 if the deadline beat even the first
// phase — while a concurrent /healthz and a step on a *different* session
// complete in well under 50ms each, proving no global lock is held across
// the computation.
func TestStepDeadlineAnytime(t *testing.T) {
	cfg := lightConfig()
	cfg.StepTimeout = time.Millisecond
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

	_, createdA := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	idA := int(createdA["id"].(float64))
	_, createdB := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	idB := int(createdB["id"].(float64))

	type outcome struct {
		code    int
		elapsed time.Duration
		body    []byte
	}
	run := func(url string) outcome {
		start := time.Now()
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return outcome{code: resp.StatusCode, elapsed: time.Since(start), body: body}
	}

	var wg sync.WaitGroup
	var stepA, health, stepB outcome
	wg.Add(3)
	go func() { defer wg.Done(); stepA = run(fmt.Sprintf("%s/sessions/%d/step", ts.URL, idA)) }()
	go func() { defer wg.Done(); health = run(ts.URL + "/healthz") }()
	go func() { defer wg.Done(); stepB = run(fmt.Sprintf("%s/sessions/%d/step", ts.URL, idB)) }()
	wg.Wait()

	checkStep := func(name string, o outcome) {
		t.Helper()
		switch o.code {
		case http.StatusOK:
			var step StepJSON
			if err := json.Unmarshal(o.body, &step); err != nil {
				t.Fatalf("%s: bad body: %v", name, err)
			}
			if !step.Degraded {
				t.Errorf("%s: 200 under a 1ms deadline must be degraded: %s", name, o.body)
			}
			if step.RecordsProcessed <= 0 {
				t.Errorf("%s: degraded step must report its scanned prefix", name)
			}
		case http.StatusGatewayTimeout:
			// Deadline beat the first phase boundary: allowed.
		default:
			t.Errorf("%s: status %d, want 200 (degraded) or 504", name, o.code)
		}
	}
	checkStep("step A", stepA)
	checkStep("step B", stepB)
	if health.code != http.StatusOK {
		t.Errorf("healthz: %d", health.code)
	}
	if health.elapsed >= 50*time.Millisecond {
		t.Errorf("healthz took %v, want <50ms (global lock held across compute?)", health.elapsed)
	}
	if stepB.elapsed >= 50*time.Millisecond {
		t.Errorf("other-session step took %v, want <50ms", stepB.elapsed)
	}
}

// TestJanitorEvictionFakeClock drives the idle-TTL janitor with a fake
// clock: only sessions idle past the TTL are evicted, touching a session
// refreshes it, and the gauges/counters follow.
func TestJanitorEvictionFakeClock(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	var offset atomic.Int64 // nanoseconds past base
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }

	s, ts := testServerWith(t, lightConfig(), Options{
		SessionTTL:      time.Minute,
		janitorInterval: time.Hour, // keep the background sweep out of the way
		clock:           clock,
	})

	_, c1 := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id1 := int(c1["id"].(float64))
	_, c2 := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id2 := int(c2["id"].(float64))

	// 30s in: touch session 2 only.
	offset.Store(int64(30 * time.Second))
	var sum map[string]any
	if resp := getJSON(t, fmt.Sprintf("%s/sessions/%d/summary", ts.URL, id2), &sum); resp.StatusCode != http.StatusOK {
		t.Fatalf("touch session 2: %d", resp.StatusCode)
	}

	// 61s in: session 1 is 61s idle (> TTL), session 2 only 31s.
	offset.Store(int64(61 * time.Second))
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	resp, err := http.Get(fmt.Sprintf("%s/sessions/%d/step", ts.URL, id1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session answered %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, fmt.Sprintf("%s/sessions/%d/summary", ts.URL, id2), &sum); resp.StatusCode != http.StatusOK {
		t.Errorf("surviving session answered %d", resp.StatusCode)
	}

	text := metricsText(t, ts)
	if !strings.Contains(text, "subdex_sessions_evicted_total 1") {
		t.Errorf("eviction counter:\n%s", grepMetric(text, "evicted"))
	}
	if !strings.Contains(text, "subdex_sessions_in_flight 1") {
		t.Errorf("in-flight gauge:\n%s", grepMetric(text, "in_flight"))
	}
}

// TestAdmissionControl covers the -max-sessions cap: the breach answers
// 429 with a Retry-After hint, deleting a session frees capacity, and
// rejections are counted.
func TestAdmissionControl(t *testing.T) {
	_, ts := testServerWith(t, lightConfig(), Options{MaxSessions: 2})

	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: %d %v", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create over cap: %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if !strings.Contains(body["error"].(string), "session limit") {
		t.Errorf("unhelpful 429 body: %v", body)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after delete: %d %v", resp.StatusCode, body)
	}

	if text := metricsText(t, ts); !strings.Contains(text, "subdex_admission_rejected_total 1") {
		t.Errorf("admission counter:\n%s", grepMetric(text, "admission"))
	}
}

// TestJSONHardening covers the request-body contract: 413 past 64 KiB,
// a targeted 400 on unknown fields, and the explicit-zero recommendation
// fix (pointer semantics).
func TestJSONHardening(t *testing.T) {
	_, ts := testServerWith(t, lightConfig(), Options{})

	// Unknown field: targeted 400.
	resp, body := postJSON(t, ts.URL+"/sessions", map[string]any{"mode": "ud", "bogus": 1})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"].(string), "unknown field") {
		t.Errorf("unknown field: %d %v", resp.StatusCode, body)
	}

	// Oversize body: 413.
	big := map[string]string{"mode": "ud", "predicate": strings.Repeat("x", 80<<10)}
	buf, _ := json.Marshal(big)
	oresp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: %d, want 413", oresp.StatusCode)
	}

	// Explicit {"recommendation": 0} gets the targeted message, not the
	// generic "one of ..." default.
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))
	for _, n := range []int{0, -3} {
		resp, body := postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id),
			map[string]any{"recommendation": n})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"].(string), "recommendation must be") {
			t.Errorf("recommendation %d: %d %v", n, resp.StatusCode, body)
		}
	}
	// Absent recommendation still yields the generic error.
	resp, body = postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id), map[string]any{})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"].(string), "one of") {
		t.Errorf("empty apply: %d %v", resp.StatusCode, body)
	}
}

// TestJSONBodyIsOneValue: a request body is one JSON value and nothing
// after it but whitespace. Data after the value is a 400 that creates no
// session; whitespace after it is accepted.
func TestJSONBodyIsOneValue(t *testing.T) {
	s, ts := testServerWith(t, lightConfig(), Options{})
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"mode":"ud"}`, http.StatusCreated},
		{"{\"mode\":\"ud\"} \r\n\t", http.StatusCreated},
		{`{"mode":"ud"} xyz`, http.StatusBadRequest},
		{`{"mode":"ud"}{"mode":"rp"}`, http.StatusBadRequest},
		{`{"mode":"ud"} 5`, http.StatusBadRequest},
		{`{"mode":"ud"}}`, http.StatusBadRequest},
		{`{"mode":"ud"} "x"`, http.StatusBadRequest},
	} {
		before := liveSessions(s)
		resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%q: %d %v, want %d", c.body, resp.StatusCode, body, c.want)
		}
		if c.want == http.StatusBadRequest && liveSessions(s) != before {
			t.Errorf("%q: a rejected body created a session", c.body)
		}
	}
}

// grepMetric extracts matching lines for readable failures.
func grepMetric(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
