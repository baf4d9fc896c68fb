package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/obs"
	"subdex/internal/sessionstore"
)

// TestServeDrainsInFlightRequest cancels Serve's context while a request
// is inside the handler: the request still completes, and Serve returns
// nil only after it has.
func TestServeDrainsInFlightRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "test", addr, "", mux, 5*time.Second) }()

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/ping"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener never came up")
		}
	}
	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			body <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-body; got != "done" {
		t.Errorf("in-flight request got %q, want \"done\"", got)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve after a clean drain: %v", err)
	}
}

// TestServeSurfacesBoundPort: a listener that cannot start ends Serve
// with its error instead of leaving a daemon that serves nothing.
func TestServeSurfacesBoundPort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		served <- Serve(context.Background(), "test", ln.Addr().String(), "", http.NotFoundHandler(), time.Second)
	}()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve on a bound port returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve on a bound port never returned")
	}
}

func TestLoadDataset(t *testing.T) {
	if _, err := LoadDataset("", "", 1, 1); err == nil {
		t.Error("neither -data nor -generate: want an error")
	}
	if _, err := LoadDataset("", "nope", 1, 1); err == nil {
		t.Error("unknown generator: want an error")
	}
	db, err := LoadDataset("", "demo", 1, 1)
	if err != nil || db.Stats().NumRatings == 0 {
		t.Errorf("demo: %v", err)
	}
}

// TestLoadDatasetRoundTrip writes every generated dataset with
// dataset.SaveDir, as datagen does, and loads it back through -data: each
// attribute must come back with the kind and the value cardinality it was
// generated with. A multi-valued attribute LoadDataset does not declare
// loads as an atomic one whose values are the joined sets.
func TestLoadDatasetRoundTrip(t *testing.T) {
	for _, name := range []string{"demo", "movielens", "yelp", "hotels"} {
		t.Run(name, func(t *testing.T) {
			want, err := LoadDataset("", name, 0.01, 1)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := dataset.SaveDir(want, dir); err != nil {
				t.Fatal(err)
			}
			got, err := LoadDataset(dir, "", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range [][2]*dataset.EntityTable{{want.Reviewers, got.Reviewers}, {want.Items, got.Items}} {
				w, g := side[0], side[1]
				for a := 0; a < w.Schema.Len(); a++ {
					attr := w.Schema.At(a)
					if ga := g.Schema.At(a); ga != attr {
						t.Errorf("%s.%s: loaded as %+v, generated as %+v", w.Name, attr.Name, ga, attr)
					}
					if wc, gc := w.ValueCardinality(a), g.ValueCardinality(a); gc != wc {
						t.Errorf("%s.%s: loaded with %d values, generated with %d", w.Name, attr.Name, gc, wc)
					}
				}
			}
		})
	}
}

// fullConfig is the fullest server NewServer builds — durable — over the
// demo dataset.
func fullConfig(t *testing.T) (*dataset.DB, ServerConfig) {
	t.Helper()
	db, err := LoadDataset("", "demo", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return db, ServerConfig{Core: core.DefaultConfig(), SessionDir: t.TempDir()}
}

// TestNewServerWiring drives the one constructor through its store: a
// session created on a durable server is recovered by the next server
// over the same directory, and one /metrics scrape covers the HTTP
// surface and the WAL.
func TestNewServerWiring(t *testing.T) {
	ctx := context.Background()
	db, cfg := fullConfig(t)

	first, err := NewServer(ctx, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"mode":"ud"}`))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %v %v", err, resp)
	}
	resp.Body.Close()
	if resp, err = http.Get(ts.URL + "/sessions/1/step"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %v %v", err, resp)
	}
	resp.Body.Close()
	ts.Close()
	first.Close()

	second, err := NewServer(ctx, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if rec := second.Recovery; rec.Sessions != 1 || rec.Records != 2 {
		t.Errorf("recovery = %+v, want 1 session from 2 records", rec)
	}
	var metrics strings.Builder
	if err := second.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"subdex_sessions_recovered_total 1", "subdex_wal_replay_records_total 2"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestMetricNamesSayWhatTheyMeasure holds every metric the module exports
// to the naming contract dashboards are written against: subdex_ and
// snake_case, a counter ends in _total, a histogram in _seconds (obs has
// one bucket layout, and it spans latencies), and a gauge — not monotone —
// never in _total. It reads the # TYPE lines of what the fullest server
// serves at /metrics after one step; instruments are resolved in
// constructors (subdexvet's obsmetrics keeps them there), so that is all
// of them.
func TestMetricNamesSayWhatTheyMeasure(t *testing.T) {
	db, cfg := fullConfig(t)
	srv, err := NewServer(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"mode":"rp"}`))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %v %v", err, resp)
	}
	resp.Body.Close()
	if resp, err = http.Get(ts.URL + "/sessions/1/step"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %v %v", err, resp)
	}
	resp.Body.Close()

	name := regexp.MustCompile(`^subdex_[a-z0-9_]+$`)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		seen++
		metric, kind := f[2], f[3]
		total := strings.HasSuffix(metric, "_total")
		switch {
		case !name.MatchString(metric):
			t.Errorf("%s %q is not of the form subdex_[a-z0-9_]+", kind, metric)
		case kind == "counter" && !total:
			t.Errorf("counter %q must end in _total", metric)
		case kind == "gauge" && total:
			t.Errorf("gauge %q must not end in _total: a gauge is not monotone", metric)
		case kind == "histogram" && !strings.HasSuffix(metric, "_seconds"):
			t.Errorf("histogram %q must end in _seconds: the one bucket layout spans latencies", metric)
		}
	}
	if seen == 0 {
		t.Error("/metrics has no # TYPE line: nothing was checked")
	}
}

// censusRow is one row of README "Signals": a metric family the fullest
// server serves at /metrics, a span name, or a flight-dump
// reason, and what moves it. typ is a metric's # TYPE (counter, gauge or
// histogram). by names a step of censusSteps, which the census runs and
// watches the signal move in, or "pkg.TestName", a test elsewhere that
// moves the signal and names it in an assertion.
type censusRow struct{ kind, name, typ, by string }

const (
	kindMetric = "metric"
	kindSpan   = "span"
	kindReason = "dump reason"
)

// readmeSignals reads README "Signals", the one list of every signal the
// module emits: signal | kind | meaning | moved by, where the kind is a
// metric's type, "span" or "dump reason". DESIGN.md's "Limitations"
// ledger has a row for each signal that left because nothing moved it or
// it repeated another.
func readmeSignals(t *testing.T) []censusRow {
	t.Helper()
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Signals\n")
	if !ok {
		t.Fatal(`README.md has no "### Signals" section`)
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	var rows []censusRow
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 4 {
			t.Errorf("README \"Signals\" row %q: want signal | kind | meaning | moved by", line)
			continue
		}
		row := censusRow{name: strings.Trim(cells[0], "`"), by: strings.Trim(cells[3], "`")}
		switch kind := cells[1]; kind {
		case "counter", "gauge", "histogram":
			row.kind, row.typ = kindMetric, kind
		case kindSpan, kindReason:
			row.kind = kind
		default:
			t.Errorf("README \"Signals\" row %s: kind %q is not counter, gauge, histogram, %s or %s", row.name, kind, kindSpan, kindReason)
			continue
		}
		rows = append(rows, row)
	}
	return rows
}

// censusStep is one request sequence or fault the census drives against
// the rig, in order: later steps build on the sessions earlier ones left.
type censusStep struct {
	name string
	run  func(r *censusRig)
}

var censusSteps = []censusStep{
	{"boot", func(r *censusRig) {
		r.boot(func(c *ServerConfig) { c.Core.StepTimeout = 200 * time.Millisecond })
	}},
	{"step past its deadline", func(r *censusRig) {
		// Every phase waits out the 200 ms step deadline: 504, and its dump.
		id := r.create("ud")
		r.stall.Store(true)
		r.want(http.StatusGatewayTimeout, http.MethodGet, fmt.Sprintf("/sessions/%d/step", id), "")
		r.stall.Store(false)
	}},
	{"restart", func(r *censusRig) { r.boot(nil) }},
	{"recommendation walk", func(r *censusRig) {
		r.walk = r.create("rp")
		step := fmt.Sprintf("/sessions/%d/step", r.walk)
		r.want(http.StatusOK, http.MethodGet, step, "")
		r.want(http.StatusOK, http.MethodGet, step, "") // the root again: a cache hit
		r.want(http.StatusOK, http.MethodPost, fmt.Sprintf("/sessions/%d/apply", r.walk), `{"recommendation":1}`)
		r.want(http.StatusOK, http.MethodGet, step, "")
	}},
	{"shed and restore", func(r *censusRig) {
		r.boot(func(c *ServerConfig) { c.Options.SessionTTL = time.Nanosecond })
		time.Sleep(time.Millisecond)
		if r.srv.EvictIdle() == 0 {
			r.t.Fatal("a session idle past a 1 ns TTL was not shed")
		}
		r.want(http.StatusOK, http.MethodGet, fmt.Sprintf("/sessions/%d/summary", r.walk), "")
	}},
	{"corrupt WAL tail", func(r *censusRig) {
		r.stop()
		wal, err := os.OpenFile(filepath.Join(r.cfg.SessionDir, sessionstore.WALFileName), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			r.t.Fatal(err)
		}
		if _, err := wal.WriteString("torn"); err != nil {
			r.t.Fatal(err)
		}
		if err := wal.Close(); err != nil {
			r.t.Fatal(err)
		}
		r.boot(nil)
	}},
	{"store fault", func(r *censusRig) {
		// The log closes under a live session: its next step commits in
		// memory and fails to persist, twice, and the second dump of each
		// reason is suppressed.
		if err := r.srv.store.Close(); err != nil {
			r.t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			r.want(http.StatusInternalServerError, http.MethodGet, fmt.Sprintf("/sessions/%d/step", r.walk), "")
		}
	}},
	{"another engine configuration", func(r *censusRig) {
		// k = 2 changes the engine fingerprint: no stored session replays,
		// at boot or on request.
		r.boot(func(c *ServerConfig) { c.Core.K = 2 })
		r.want(http.StatusInternalServerError, http.MethodGet, fmt.Sprintf("/sessions/%d/step", r.walk), "")
	}},
}

// censusRig is the fullest server, rebooted over one session directory
// by the steps that need another configuration.
type censusRig struct {
	t      *testing.T
	db     *dataset.DB
	cfg    ServerConfig // as fullConfig built it; boot applies each step's change to a copy
	flight string       // one dump directory per boot under it: dump names restart at 001

	srv      *Server
	ts       *httptest.Server
	boots    int
	rebooted bool              // the running step booted a fresh server: its metrics start at zero
	trace    obs.TraceID       // the running step's, sent on every request it makes
	stall    atomic.Bool       // every engine phase waits for its step's deadline
	walk     int               // the recommendation walk's session
	types    map[string]string // each metric family's # TYPE, as served
}

// boot stops the running server and starts a new one over the same
// session directory, configured as fullConfig's with mut applied.
func (r *censusRig) boot(mut func(*ServerConfig)) {
	r.stop()
	cfg := r.cfg
	if mut != nil {
		mut(&cfg)
	}
	r.boots++
	cfg.Options.FlightDir = filepath.Join(r.flight, strconv.Itoa(r.boots))
	cfg.Core.Engine.PhaseHook = func(ctx context.Context, _ int) {
		if r.stall.Load() {
			<-ctx.Done()
		}
	}
	srv, err := NewServer(context.Background(), r.db, cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.srv, r.ts, r.rebooted = srv, httptest.NewServer(srv.Handler()), true
}

func (r *censusRig) stop() {
	if r.srv != nil {
		r.ts.Close()
		r.srv.Close()
		r.srv = nil
	}
}

// want sends one request under the step's trace and fails unless it is
// answered with code.
func (r *censusRig) want(code int, method, path, body string) []byte {
	r.t.Helper()
	req, err := http.NewRequest(method, r.ts.URL+path, strings.NewReader(body))
	if err != nil {
		r.t.Fatal(err)
	}
	req.Header.Set("traceparent", obs.Traceparent(r.trace, obs.NewSpanID()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		r.t.Fatal(err)
	}
	if resp.StatusCode != code {
		r.t.Fatalf("%s %s answered %d, want %d: %s", method, path, resp.StatusCode, code, out)
	}
	return out
}

// create starts a session in mode and returns its id.
func (r *censusRig) create(mode string) int {
	r.t.Helper()
	var created struct{ ID int }
	if err := json.Unmarshal(r.want(http.StatusCreated, http.MethodPost, "/sessions", `{"mode":"`+mode+`"}`), &created); err != nil {
		r.t.Fatal(err)
	}
	return created.ID
}

// reading is what the census reads off the rig between steps: each metric
// family's value on the server (a histogram's is its _count; a family's
// series are summed), the span names under the running step's trace, and
// how many dumps each reason has on disk.
type reading struct {
	server map[string]float64
	spans  map[string]bool
	dumps  map[string]int
}

func (r *censusRig) read() reading {
	r.t.Helper()
	rd := reading{spans: map[string]bool{}, dumps: map[string]int{}}
	if r.srv == nil {
		return rd
	}
	rd.server = r.scrape(r.srv.Registry())
	var spans struct{ Spans []*obs.SpanData }
	resp, err := http.Get(r.ts.URL + "/debug/spans?trace=" + string(r.trace))
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		r.t.Fatal(err)
	}
	var walk func(*obs.SpanData)
	walk = func(sp *obs.SpanData) {
		name, _, _ := strings.Cut(sp.Name, " ") // "http GET /sessions/{id}" is the span "http"
		rd.spans[name] = true
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range spans.Spans {
		walk(sp)
	}
	dumps, err := filepath.Glob(filepath.Join(r.flight, "*", "server-*.jsonl"))
	if err != nil {
		r.t.Fatal(err)
	}
	for _, d := range dumps {
		// server-<seq>-<reason>.jsonl
		_, reason, _ := strings.Cut(strings.TrimPrefix(filepath.Base(d), "server-"), "-")
		rd.dumps[strings.TrimSuffix(reason, ".jsonl")]++
	}
	return rd
}

// scrape reads each metric family's value off reg, and records its #
// TYPE in r.types.
func (r *censusRig) scrape(reg *obs.Registry) map[string]float64 {
	r.t.Helper()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		r.t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			r.types[f[2]] = f[3]
			out[f[2]] += 0
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		if h := strings.TrimSuffix(name, "_count"); r.types[h] == "histogram" {
			name = h
		} else if r.types[name] == "" || r.types[name] == "histogram" {
			continue // a histogram's _bucket and _sum series
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			r.t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[name] += v
	}
	return out
}

// moved lists the signals whose reading differs between before and after.
func moved(before, after reading) map[censusRow]bool {
	out := map[censusRow]bool{}
	for name, v := range after.server {
		if v != before.server[name] {
			out[censusRow{kind: kindMetric, name: name}] = true
		}
	}
	for name := range after.spans {
		if !before.spans[name] {
			out[censusRow{kind: kindSpan, name: name}] = true
		}
	}
	for reason, n := range after.dumps {
		if n != before.dumps[reason] {
			out[censusRow{kind: kindReason, name: reason}] = true
		}
	}
	return out
}

// TestSignalCensus holds every signal to a test that moves it, the way
// TestKnobCensus holds every knob to who sets it; the rows are README
// "Signals". It drives censusSteps against the fullest server and reads,
// after each step, what moved. A row naming a step fails unless that step
// moved its signal; one naming a test elsewhere fails unless that test
// exists and names the signal; a metric row fails unless its kind is the
// # TYPE /metrics serves. A signal served without a row fails — a metric
// family on /metrics, a span name or a flight-dump reason written as a
// literal in non-test code under internal/ or cmd/ — and so does a row
// whose signal is gone.
func TestSignalCensus(t *testing.T) {
	db, cfg := fullConfig(t)
	r := &censusRig{t: t, db: db, cfg: cfg, flight: t.TempDir(), types: map[string]string{}}
	defer r.stop()

	served := emittedSignals(t)
	movedIn := map[string]map[censusRow]bool{}
	for i, st := range censusSteps {
		r.trace = obs.DeriveTraceID(uint64(i))
		r.rebooted = false
		before := r.read()
		st.run(r)
		if r.rebooted {
			before.server = nil
		}
		after := r.read()
		movedIn[st.name] = moved(before, after)
		for name := range after.server {
			served[censusRow{kind: kindMetric, name: name}] = true
		}
	}

	rows := map[censusRow]bool{}
	for _, row := range readmeSignals(t) {
		key := censusRow{kind: row.kind, name: row.name}
		if rows[key] {
			t.Errorf("README \"Signals\" has two rows for %s %s", row.kind, row.name)
		}
		rows[key] = true
		if !served[key] {
			t.Errorf("README \"Signals\" has a row for %s %s, which is no longer emitted: remove the row", row.kind, row.name)
			continue
		}
		if row.kind == kindMetric && r.types[row.name] != row.typ {
			t.Errorf("README \"Signals\" says %s is a %s; /metrics serves it as a %s", row.name, row.typ, r.types[row.name])
		}
		if m, ok := movedIn[row.by]; ok {
			if !m[key] {
				t.Errorf("%s %s: step %q did not move it", row.kind, row.name, row.by)
			}
			continue
		}
		if err := testNamesSignal(row.by, row.name); err != nil {
			t.Errorf("%s %s: %v", row.kind, row.name, err)
		}
	}
	for key := range served {
		if !rows[key] {
			t.Errorf("%s %s has no row in README \"Signals\": name the step or test that moves it, or remove it", key.kind, key.name)
		}
	}
}

// emittedSignals collects the span names and flight-dump reasons the
// non-test code under internal/ and cmd/ writes as literals: the first
// word of obs.StartSpan's name, and the first argument of Trigger,
// flightEvent and flightTrigger (a non-literal there forwards a reason
// chosen elsewhere). A reason names dump files, so it must be snake_case.
func emittedSignals(t *testing.T) map[censusRow]bool {
	t.Helper()
	snakeCase := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	out := map[censusRow]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "StartSpan":
					if len(call.Args) != 2 {
						return true
					}
					arg := call.Args[1]
					for {
						bin, ok := arg.(*ast.BinaryExpr)
						if !ok {
							break
						}
						arg = bin.X
					}
					lit, ok := arg.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Errorf("%s: a span name must start with a string literal", fset.Position(call.Pos()))
						return true
					}
					name, _ := strconv.Unquote(lit.Value)
					out[censusRow{kind: kindSpan, name: strings.Fields(name)[0]}] = true
				case "Trigger", "flightEvent", "flightTrigger":
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if reason, _ := strconv.Unquote(lit.Value); reason != "" {
							if !snakeCase.MatchString(reason) {
								t.Errorf("%s: flight-dump reason %q names the dump's files: it must be snake_case", fset.Position(call.Pos()), reason)
							}
							out[censusRow{kind: kindReason, name: reason}] = true
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// testNamesSignal checks that by, "pkg.TestName", is a test function of
// package pkg (internal/pkg, or cmd/pkg for a binary) whose body contains
// name.
func testNamesSignal(by, name string) error {
	pkg, test, ok := strings.Cut(by, ".")
	if !ok {
		return fmt.Errorf("%q is neither a census step nor a pkg.TestName", by)
	}
	dir := filepath.Join("..", pkg)
	if _, err := os.Stat(dir); err != nil {
		dir = filepath.Join("..", "..", "cmd", pkg)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return err
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		_, body, found := strings.Cut(string(src), "\nfunc "+test+"(")
		if !found {
			continue
		}
		if end := strings.Index(body, "\nfunc "); end >= 0 {
			body = body[:end]
		}
		if !strings.Contains(body, name) {
			return fmt.Errorf("%s does not name it", by)
		}
		return nil
	}
	return fmt.Errorf("no test %s", by)
}
