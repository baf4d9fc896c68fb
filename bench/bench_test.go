package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestAgreesWithCode pins BENCHMARK.json to what the program
// reports: the same workloads, metrics, units, directions and bounds.
func TestManifestAgreesWithCode(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the rounds are sized for %d", m.RunSeconds, nominalSeconds)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d defined", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(m.EndToEnd), len(endToEnd))
	}
	for i, mm := range m.EndToEnd {
		e := endToEnd[i]
		if mm.Name != e.name || mm.Better != e.better || mm.Unit != e.unit {
			t.Errorf("end-to-end %d is %+v, want %s/%s/%s", i, mm, e.name, e.unit, e.better)
		}
		if mm.Bound == nil || *mm.Bound != e.bound || e.bound > 0.25 {
			t.Errorf("%s: bound %v, want %v (at most 0.25)", mm.Name, mm.Bound, e.bound)
		}
	}
	if len(m.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(m.PerLayer), len(perLayerMetrics))
	}
	for i, mm := range m.PerLayer {
		lm := perLayerMetrics[i]
		if mm.Bound != nil {
			t.Errorf("per-layer %s has a bound", mm.Name)
		}
		if mm.Name != lm.name || mm.Unit != lm.unit || mm.Better != lm.better {
			t.Errorf("per-layer %d is %+v, want %+v", i, mm, lm)
		}
	}
}

// TestSmokeRuns runs all four workloads at smoke size, untraced and traced,
// and checks each emits exactly the metrics BENCHMARK.json lists.
func TestSmokeRuns(t *testing.T) {
	m := readManifest(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, mm := range m.EndToEnd {
		want[false][mm.Name] = mm.Unit
	}
	for _, mm := range m.PerLayer {
		want[true][mm.Name] = mm.Unit
	}
	out := t.TempDir()
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), s.smoke(), 1, traced, true, out, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", s.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.name, traced, len(res.Metrics), len(want[traced]))
			}
			for name, got := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", s.name, name)
				}
				if unit, ok := want[traced][name]; !ok || unit != got.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, listed %q (listed: %v)", s.name, traced, name, got.Unit, unit, ok)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: %s = %v", s.name, name, got.Value)
				}
			}
		}
		if err := traceSummary(discard{}, out+"/"+s.name+".trace.jsonl"); err != nil {
			t.Errorf("%s: trace summary: %v", s.name, err)
		}
	}
}

// TestPlanFromSeed: a seed always gives the same plan, and another seed the
// same walks in another order.
func TestPlanFromSeed(t *testing.T) {
	db, err := generate("demo", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		s = s.smoke()
		one, err := plan(db, s, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := plan(db, s, 1)
		two, _ := plan(db, s, 2)
		if !reflect.DeepEqual(one, again) {
			t.Errorf("%s: seed 1 gave two plans", s.name)
		}
		if reflect.DeepEqual(one, two) {
			t.Errorf("%s: seeds 1 and 2 gave the same plan", s.name)
		}
		count := func(plan []walk) map[walk]int {
			c := map[walk]int{}
			for _, w := range plan {
				c[w]++
			}
			return c
		}
		if !reflect.DeepEqual(count(one), count(two)) {
			t.Errorf("%s: seeds 1 and 2 take other walks, not another order", s.name)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func opsOf(durs ...int) []op {
	ops := make([]op, len(durs))
	for i, d := range durs {
		ops[i] = op{Walk: 0, Kind: "step", Digest: "d", Dur: time.Duration(d) * time.Millisecond}
	}
	return ops
}

// TestCleanLatencyIsMinimumOverRounds is the estimator: additive bursts in
// any one round never reach the clean latency.
func TestCleanLatencyIsMinimumOverRounds(t *testing.T) {
	rounds := [][]op{opsOf(5, 90, 7), opsOf(6, 8, 70), opsOf(50, 9, 6)}
	clean, bad := cleanLatencies(rounds)
	if len(bad) != 0 {
		t.Fatalf("bad rounds %v", bad)
	}
	for i, want := range []int{5, 8, 6} {
		if clean[i] != time.Duration(want)*time.Millisecond {
			t.Errorf("op %d: clean %v, want %dms", i, clean[i], want)
		}
	}
}

// TestNonReproducingRoundIsFailure: a round that runs other operations or
// displays other maps is counted as failed, whole, and lends no sample.
func TestNonReproducingRoundIsFailure(t *testing.T) {
	other := opsOf(1, 1, 1)
	other[1].Digest = "changed"
	short := opsOf(1, 1)
	rounds := [][]op{opsOf(5, 6, 7), other, short, opsOf(4, 9, 9)}
	clean, bad := cleanLatencies(rounds)
	if len(bad) != 2 || bad[0] != 1 || bad[1] != 2 {
		t.Fatalf("bad rounds %v, want [1 2]", bad)
	}
	if clean[0] != 4*time.Millisecond || clean[1] != 6*time.Millisecond {
		t.Errorf("clean %v took samples from a non-reproducing round", clean)
	}
	failed, attempted := failures(rounds, bad)
	if failed != 5 || attempted != 11 {
		t.Errorf("failed %d of %d, want 5 of 11", failed, attempted)
	}
	rounds[3][2].Bad = true
	if failed, _ := failures(rounds, bad); failed != 6 {
		t.Errorf("a degraded step in a reproducing round: failed %d, want 6", failed)
	}
}

// TestPercentileNeedsTenSamplesBeyond pins the rule that decides which
// percentile a sample supports.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 0.90, false}, {100, 0.90, true}, {110, 0.90, true},
		{110, 0.99, false}, {1000, 0.99, true}, {3200, 0.99, true}, {19, 0.50, false}, {20, 0.50, true},
	} {
		if got := percentileSupported(c.n, c.p); got != c.want {
			t.Errorf("p%.0f of %d samples: supported=%v (%d beyond), want %v", 100*c.p, c.n, got, tailSamples(c.n, c.p), c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5}
	if got := percentile(sorted, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(sorted, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{12, 3, 7, 9, 1, 15, 8, 4, 10, 6})
	if q1 != 3.75 || q2 != 7.5 || q3 != 10.5 {
		t.Errorf("quartiles = %v %v %v, want 3.75 7.5 10.5", q1, q2, q3)
	}
}

// TestRoundsScaleWithSeconds: the run length only ever picks the number of
// rounds, and never fewer than five.
func TestRoundsScaleWithSeconds(t *testing.T) {
	s := spec{rounds: 8}
	for seconds, want := range map[int]int{nominalSeconds: 8, 2 * nominalSeconds: 16, 1: minRounds, 0: 8} {
		if got := s.scaled(seconds).rounds; got != want {
			t.Errorf("%d s: %d rounds, want %d", seconds, got, want)
		}
	}
}
