package workload

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"subdex/internal/core"
	"subdex/internal/obs"
	"subdex/internal/server"
)

// scrapeRegistry registers representative instruments, drives them, and
// round-trips through the Prometheus text encoding.
func scrapeRegistry(t *testing.T) *Scrape {
	t.Helper()
	reg := obs.NewRegistry()
	c := reg.Counter("subdex_test_events_total", "Test events.")
	c.Add(7)
	for _, code := range []string{"200", "409"} {
		cc := reg.Counter("subdex_test_requests_total", "Test requests.", obs.L("code", code))
		cc.Add(3)
	}
	g := reg.Gauge("subdex_test_in_flight_requests", "Test gauge.")
	g.Set(2.5)
	h := reg.Histogram("subdex_test_latency_seconds", "Test latency.")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	return s
}

// TestScrapeRoundTrip pins the scrape layer against the repo's own
// exposition writer: values, labeled sums, and a histogram's bucket, sum
// and count samples all survive the text round trip.
func TestScrapeRoundTrip(t *testing.T) {
	s := scrapeRegistry(t)
	if got := s.Value("subdex_test_events_total", nil); got != 7 {
		t.Errorf("counter: want 7, got %v", got)
	}
	if got := s.Sum("subdex_test_requests_total"); got != 6 {
		t.Errorf("labeled sum: want 6, got %v", got)
	}
	if got := s.Value("subdex_test_requests_total", map[string]string{"code": "409"}); got != 3 {
		t.Errorf("code=409: want 3, got %v", got)
	}
	if got := s.Value("subdex_test_requests_total", map[string]string{"code": "504"}); got != 0 {
		t.Errorf("absent code: want 0, got %v", got)
	}
	if got := s.Value("subdex_test_in_flight_requests", nil); got != 2.5 {
		t.Errorf("gauge: want 2.5, got %v", got)
	}
	if got := s.Value("subdex_test_latency_seconds_count", nil); got != 5 {
		t.Errorf("histogram count: want 5, got %v", got)
	}
	if got, want := s.Value("subdex_test_latency_seconds_sum", nil), 0.005+0.05+0.05+0.5+2; math.Abs(got-want) > 1e-9 {
		t.Errorf("histogram sum: want %v, got %v", want, got)
	}
	// Cumulative counts on the fixed log-scale buckets: ≤0.008:1,
	// ≤0.064:3, ≤0.512:4, +Inf:5.
	for le, want := range map[string]float64{"0.008": 1, "0.064": 3, "0.512": 4, "+Inf": 5} {
		if got := s.Value("subdex_test_latency_seconds_bucket", map[string]string{"le": le}); got != want {
			t.Errorf("bucket le=%s: want %v, got %v", le, want, got)
		}
	}
}

// TestScrapeLabelEscapes pins label-value unescaping against text-format
// escape sequences.
func TestScrapeLabelEscapes(t *testing.T) {
	text := `subdex_test_weird_total{path="a\\b",msg="line\nbreak \"q\""} 3` + "\n"
	s, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Value("subdex_test_weird_total",
		map[string]string{"path": `a\b`, "msg": "line\nbreak \"q\""})
	if got != 3 {
		t.Errorf("escaped labels: want 3, got %v", got)
	}
	if got := s.Sum("subdex_test_weird_total"); got != 3 {
		t.Errorf("escaped sum: want 3, got %v", got)
	}
}

// TestFetchMetricsLive scrapes a live server's /metrics after a short
// walk and checks the step counters are populated.
func TestFetchMetricsLive(t *testing.T) {
	ctx := context.Background()
	_, ts := demoServer(t, server.Options{})
	res, err := Run(ctx, Config{Users: 2, Seed: 5, StepsPerUser: 3},
		HTTPFactory(ts.URL, nil, core.RecommendationPowered, ""))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("walk executed no steps")
	}
	s, err := FetchMetrics(ctx, nil, ts.URL+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Sum("subdex_step_duration_seconds_count"); int(got) < res.Steps {
		t.Errorf("step-latency histogram count %v < steps %d", got, res.Steps)
	}
}

// Value returns one counter/gauge sample by name and exact label set
// (nil/empty labels select the unlabeled series). Missing series read 0.
func (s *Scrape) Value(name string, labels map[string]string) float64 {
	return s.values[seriesKey(name, labels)]
}
