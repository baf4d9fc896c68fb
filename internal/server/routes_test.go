package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// seriesValue reads one counter series out of a /metrics scrape; a
// series that was never touched reads 0.
func seriesValue(text, series string) int {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var n int
			fmt.Sscan(rest, &n)
			return n
		}
	}
	return 0
}

// routeCase is one row of the HTTP surface: a request, and how the server
// answers it when nothing is wrong.
type routeCase struct {
	method, path, body string
	status             int
	allow, errMsg      string
	route              string
}

// routeCases is the whole HTTP surface as a table, over a session that
// lives at path sess ("/sessions/<id>"). The rows run in order against one
// server — the last one deletes the session — and
// TestStoreFaultIsNeverSilent replays each of them over a failing store,
// so a new route belongs here.
func routeCases(sess string) []routeCase {
	return []routeCase{
		{"GET", "/healthz", "", 200, "", "", "/healthz"},
		{"POST", "/healthz", "", 200, "", "", "/healthz"},
		{"POST", "/sessions", `{"mode":"ud"}`, 201, "", "", "/sessions"},
		{"POST", "/sessions", `{"mode":"zz"}`, 400, "", `unknown mode "zz"`, "/sessions"},
		{"POST", "/sessions", `{`, 400, "", "bad JSON", "/sessions"},
		{"GET", "/sessions", "", 405, "POST", "POST only", "/sessions"},
		{"DELETE", "/sessions", "", 405, "POST", "POST only", "/sessions"},
		{"GET", sess + "/step", "", 200, "", "", sessionRoute},
		{"POST", sess + "/step", "", 405, "GET", "GET only", sessionRoute},
		{"POST", sess + "/apply", `{"back":true}`, 409, "", "history empty", sessionRoute},
		{"POST", sess + "/apply", `{}`, 400, "", "one of predicate", sessionRoute},
		{"POST", sess + "/apply", `{"predicate":"reviewers.gender = 'female'"}`, 200, "", "", sessionRoute},
		{"GET", sess + "/apply", "", 405, "POST", "POST only", sessionRoute},
		{"GET", sess + "/summary", "", 200, "", "", sessionRoute},
		{"POST", sess + "/summary", "", 405, "GET", "GET only", sessionRoute},
		{"GET", sess + "/maps/1/vega", "", 200, "", "", sessionRoute},
		{"GET", sess + "/maps/0/vega", "", 400, "", "bad map index", sessionRoute},
		{"GET", sess + "/maps/99/vega", "", 404, "", "map index out of range", sessionRoute},
		{"POST", sess + "/maps/1/vega", "", 405, "GET", "GET only", sessionRoute},
		{"GET", sess, "", 405, "DELETE", "DELETE only", sessionRoute},
		{"GET", sess + "/nonsense", "", 404, "", "unknown action nonsense", sessionRoute},
		{"GET", sess + "/maps/1", "", 404, "", "unknown action maps", sessionRoute},
		{"GET", "/sessions/abc/step", "", 400, "", "bad session id", sessionRoute},
		{"DELETE", "/sessions/abc", "", 400, "", "bad session id", sessionRoute},
		{"GET", "/sessions/", "", 400, "", "bad session id", sessionRoute},
		{"GET", "/sessions/999/step", "", 404, "", "no such session", sessionRoute},
		{"DELETE", "/sessions/999", "", 404, "", "no such session", sessionRoute},
		{"POST", "/sessions/999/step", "", 405, "GET", "GET only", sessionRoute},
		{"GET", "/metrics", "", 200, "", "", "/metrics"},
		{"POST", "/metrics", "", 405, "GET", "GET only", "/metrics"},
		{"GET", "/debug/spans", "", 200, "", "", "/debug/spans"},
		{"GET", "/debug/spans?limit=-1", "", 400, "", "limit must be", "/debug/spans"},
		{"POST", "/debug/spans", "", 405, "GET", "GET only", "/debug/spans"},
		{"GET", "/debug/cache", "", 200, "", "", "/debug/cache"},
		{"POST", "/debug/cache", "", 405, "GET", "GET only", "/debug/cache"},
		{"GET", "/debug/flightrecorder", "", 200, "", "", "/debug/flightrecorder"},
		{"PUT", "/debug/flightrecorder", "", 405, "GET", "GET only", "/debug/flightrecorder"},
		{"DELETE", sess, "", 200, "", "", sessionRoute},
	}
}

// TestRouteTable pins the whole HTTP surface in one table: for every
// (method, path) the server answers — the status, the Allow header of a
// 405, the JSON error shape of every refusal, and the route/code series
// the request is counted in. Session sub-routes all land in
// route="/sessions/{id}".
func TestRouteTable(t *testing.T) {
	_, ts := testServerWith(t, lightConfig(), Options{})
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))

	for _, c := range routeCases(fmt.Sprintf("/sessions/%d", id)) {
		name := c.method + " " + c.path
		series := fmt.Sprintf(`subdex_http_requests_total{route=%q,code="%d"}`, c.route, c.status)
		before := seriesValue(metricsText(t, ts), series)
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, c.status, body)
			continue
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s: Allow = %q, want %q", name, got, c.allow)
		}
		if resp.Header.Get("traceparent") == "" {
			t.Errorf("%s: no traceparent echoed", name)
		}
		if c.status >= 400 {
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || len(e) != 1 || !strings.Contains(e["error"], c.errMsg) {
				t.Errorf("%s: body %s, want {\"error\": …%s…}", name, body, c.errMsg)
			}
		}
		// The scrape that reads the count is itself a GET /metrics 200.
		want := before + 1
		if series == `subdex_http_requests_total{route="/metrics",code="200"}` {
			want++
		}
		if got := seriesValue(metricsText(t, ts), series); got != want {
			t.Errorf("%s: %s = %d, want %d", name, series, got, want)
		}
	}
}

// TestReadmeRoutesAreTheRouteTable holds README "HTTP API" to routes():
// one row, method and path, per route the server handles. The two
// catch-alls — a pattern ending in "/" or in a {name...} wildcard — answer
// what no row claims and are described in the README's prose instead. A
// handler's "" method (every method) is written "any".
func TestReadmeRoutesAreTheRouteTable(t *testing.T) {
	var code []string
	for _, rt := range (*Server)(nil).routes() {
		if strings.HasSuffix(rt.pattern, "/") || strings.HasSuffix(rt.pattern, "...}") {
			continue
		}
		method := rt.method
		if method == "" {
			method = "any"
		}
		code = append(code, method+" "+rt.pattern)
	}
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## HTTP API\n")
	if !ok {
		t.Fatal(`README.md has no "## HTTP API" section`)
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	var readme []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) < 3 {
			t.Errorf("README \"HTTP API\" row %q: want method | path | answers", line)
			continue
		}
		readme = append(readme, strings.Trim(cells[0], "`")+" "+strings.Trim(cells[1], "`"))
	}
	for _, r := range code {
		if !slices.Contains(readme, r) {
			t.Errorf("routes() handles %s, which has no row in README \"HTTP API\"", r)
		}
	}
	for _, r := range readme {
		if !slices.Contains(code, r) {
			t.Errorf("README \"HTTP API\" has a row for %s, which routes() does not handle", r)
		}
	}
	if !t.Failed() && !slices.Equal(readme, code) {
		t.Errorf("README \"HTTP API\" lists the routes as %v; routes() has them as %v", readme, code)
	}
}

// TestWrongMethodDoesNotRestore pins the one contract this route table
// moved: a wrong-method request on a known session action is refused
// before the session lookup, so it no longer replays a shed session
// through the engine just to answer 405.
func TestWrongMethodDoesNotRestore(t *testing.T) {
	var offset atomic.Int64
	base := time.Now()
	s, ts := durableServer(t, tempStore(t), Options{
		SessionTTL:      time.Minute,
		janitorInterval: time.Hour, // the test sweeps by hand
		clock:           func() time.Time { return base.Add(time.Duration(offset.Load())) },
	})
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))
	offset.Store(int64(2 * time.Minute))
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("shed %d sessions, want 1", n)
	}
	stepURL := fmt.Sprintf("%s/sessions/%d/step", ts.URL, id)
	resp, err := http.Post(stepURL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST step on a shed session: %d, want 405", resp.StatusCode)
	}
	if text := metricsText(t, ts); !strings.Contains(text, "subdex_sessions_restored_total 0") {
		t.Errorf("a 405 restored the shed session:\n%s", grepMetric(text, "restored"))
	}
	if code, _ := stepBody(t, ts, id, ""); code != http.StatusOK {
		t.Fatalf("GET step on the shed session: %d", code)
	}
	if text := metricsText(t, ts); !strings.Contains(text, "subdex_sessions_restored_total 1") {
		t.Errorf("the right method did not restore:\n%s", grepMetric(text, "restored"))
	}
}
