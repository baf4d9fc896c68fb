package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run prints: the contract's four keys.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in report order, each with the
// bound by which it may worsen before a change counts as a regression, as a
// share of the parent's median. BENCHMARK.json repeats the list
// (bench_test.go checks the two agree). A bound has to cover the spread
// between runs of the same code on every workload: what is counted (bytes)
// repeats and gets 2%; what is clocked gets 25%, because this box has spells
// of ten minutes in which serve_durable's sub-millisecond, system-call-heavy
// operations all run a fifth slower (README.md). fail_frac is not in the
// list: a bounded metric may never read 0, so failures are reported through
// failed and attempted, and as bench.fail_frac per layer.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"step_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_step", "ms", "lower", 0.25},
	{"alloc_kb_per_step", "KB", "lower", 0.02},
	{"setup_heap_mb", "MB", "lower", 0.02},
}

// measured is an untraced run: the rounds, the clean latencies, and the
// correctness verdicts that feed fail_frac and the exit code.
type measured struct {
	rounds    []*round
	clean     []time.Duration
	failed    int
	attempted int
	problems  []string
}

func (m *measured) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// latencies returns the clean latencies of one kind of operation, in ms.
func (m *measured) latencies(kind string) []float64 {
	var out []float64
	for i, o := range m.rounds[0].ops {
		if o.Kind == kind {
			out = append(out, ms(m.clean[i]))
		}
	}
	return out
}

// measure runs the plan for spec.rounds cold rounds and applies the
// estimator.
func measure(ctx context.Context, p *prepared) (*measured, error) {
	m := &measured{}
	var all [][]op
	for r := 0; r < p.spec.rounds; r++ {
		rd, err := runRound(ctx, p, r)
		if err != nil {
			return nil, err
		}
		m.rounds = append(m.rounds, rd)
		all = append(all, rd.ops)
	}
	var bad []int
	m.clean, bad = cleanLatencies(all)
	m.failed, m.attempted = failures(all, bad)
	for _, r := range bad {
		m.problem("round %d did not reproduce round 0's operations and digests", r)
	}
	for r, rd := range m.rounds {
		for _, msg := range rd.problems {
			m.check(false, "round %d: %s", r, msg)
		}
	}
	m.check(m.rounds[0].steps == p.steps, "round 0 displayed %d steps, the plan asks for %d", m.rounds[0].steps, p.steps)
	if p.spec.served || p.spec.clustered {
		ref, err := reference(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("reference twin: %w", err)
		}
		m.check(reproduces(ref, m.rounds[0].ops), "round 0 differs from its plain in-process twin")
	}
	return m, nil
}

// check counts one correctness check that is not a client operation.
func (m *measured) check(ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.failed++
		m.problem(format, args...)
	}
}

// endToEnd derives the end-to-end metrics from an untraced run.
func (m *measured) endToEnd(smoke bool) (map[string]metric, error) {
	steps := m.latencies("step")
	if len(steps) == 0 {
		return nil, fmt.Errorf("no steps measured")
	}
	if !smoke && !percentileSupported(len(steps), 0.90) {
		return nil, fmt.Errorf("%d steps leave %d samples beyond p90, need %d",
			len(steps), tailSamples(len(steps), 0.90), minTailSamples)
	}
	var total time.Duration
	for _, d := range m.clean {
		total += d
	}
	var setups, heaps, cpus, allocs []float64
	for _, rd := range m.rounds {
		setups = append(setups, rd.setup.Seconds())
		heaps = append(heaps, float64(rd.setupHeapB)/(1<<20))
		cpus = append(cpus, ms(rd.cpu)/float64(rd.steps))
		allocs = append(allocs, float64(rd.allocB)/1024/float64(rd.steps))
	}
	sort.Float64s(steps)
	values := map[string]float64{
		"setup_s":           minOf(setups),
		"steps_per_s":       float64(len(steps)) / total.Seconds(),
		"step_p50_ms":       percentile(steps, 0.50),
		"step_p90_ms":       percentile(steps, 0.90),
		"cpu_ms_per_step":   minOf(cpus),
		"alloc_kb_per_step": median(allocs),
		"setup_heap_mb":     median(heaps),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		out[e.name] = metric{Value: values[e.name], Unit: e.unit}
	}
	return out, nil
}
