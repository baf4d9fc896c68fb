package daemon

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"subdex/internal/cluster"
	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/obs"
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

// fullConfig is the fullest server NewServer builds — durable, and scanning
// through a coordinator — over the demo dataset and one in-process worker
// with a registry of its own, whose address it returns too.
func fullConfig(t *testing.T) (*dataset.DB, ServerConfig, string) {
	t.Helper()
	db, err := LoadDataset("", "demo", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(cluster.NewWorker(ex, cluster.WorkerOptions{Registry: obs.NewRegistry()}).Handler())
	t.Cleanup(worker.Close)
	return db, ServerConfig{
		Core:       core.DefaultConfig(),
		SessionDir: t.TempDir(),
		Cluster:    cluster.CoordinatorConfig{Workers: []string{worker.URL}, HealthInterval: -1},
	}, worker.URL
}

// TestNewServerWiring drives the one constructor through both optional
// parts: a session created on a durable, coordinator-backed server is
// recovered by the next server over the same directory, and one /metrics
// scrape covers the HTTP surface, the WAL and the coordinator.
func TestNewServerWiring(t *testing.T) {
	ctx := context.Background()
	db, cfg, _ := fullConfig(t)

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
		t.Fatalf("step through the coordinator: %v %v", err, resp)
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
	for _, want := range []string{"subdex_sessions_recovered_total 1", "subdex_wal_replay_records_total 2", "subdex_cluster_workers_healthy 1"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestMetricNamesSayWhatTheyMeasure holds every metric the module exports
// to the naming contract dashboards are written against: subdex_ and
// snake_case, a counter ends in _total, a histogram in its base unit, and
// a gauge — not monotone — never in _total. It reads the # TYPE lines of
// what the fullest server and its worker serve at /metrics after one
// step; instruments are resolved in constructors (subdexvet's obsmetrics
// keeps them there), so that is all of them.
func TestMetricNamesSayWhatTheyMeasure(t *testing.T) {
	db, cfg, workerURL := fullConfig(t)
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
	units := []string{"_seconds", "_bytes", "_ratio", "_records"}
	for _, url := range []string{ts.URL, workerURL} {
		seen := 0
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(text), "\n") {
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
				continue
			}
			seen++
			metric, kind := f[2], f[3]
			total := strings.HasSuffix(metric, "_total")
			unit := slices.ContainsFunc(units, func(u string) bool { return strings.HasSuffix(metric, u) })
			switch {
			case !name.MatchString(metric):
				t.Errorf("%s %q is not of the form subdex_[a-z0-9_]+", kind, metric)
			case kind == "counter" && !total:
				t.Errorf("counter %q must end in _total", metric)
			case kind == "gauge" && total:
				t.Errorf("gauge %q must not end in _total: a gauge is not monotone", metric)
			case kind == "histogram" && !unit:
				t.Errorf("histogram %q must end in a base unit (%s)", metric, strings.Join(units, ", "))
			}
		}
		if seen == 0 {
			t.Errorf("%s/metrics has no # TYPE line: nothing was checked", url)
		}
	}
}
