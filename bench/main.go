// Command bench is SubDEx's benchmark: four seeded workloads, each a fixed
// sequence of exploration operations repeated from cold state, measured
// end to end (untraced) or layer by layer (traced). See README.md. It is
// built and run from the root of the checkout by run.sh:
//
//	sh bench/run.sh -workload guided_walk -seed 1
//	sh bench/run.sh -workload guided_walk -seed 1 -trace 1
//	sh bench/run.sh -aa 5
//	sh bench/run.sh -trace-summary bench/out/guided_walk.trace.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Int64("seed", 1, "seed of the order the walks, and the sessions of the seeded WAL, are taken in")
		seconds = flag.Int("seconds", nominalSeconds, "nominal run length; scales the number of cold rounds (never below 5)")
		trace   = flag.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics instead of the end-to-end ones")
		smoke   = flag.Bool("smoke", false, "demo-sized workloads and two rounds (what bench_test.go runs)")
		out     = flag.String("out", filepath.Join("bench", "out"), "scratch directory for generated data, WAL copies and trace files")
		aa      = flag.Int("aa", 0, "A/A check: run every workload 2N times and compare the two interleaved halves")
		summary = flag.String("trace-summary", "", "print the per-layer self-time table of a trace file and exit")
	)
	flag.Parse()
	// Every step is measured on one P. The load is one analyst issuing one
	// operation at a time, and on the shared 2-vCPU box this was written for
	// what a second P adds is mostly its neighbours' noise: in twenty
	// alternating runs three of the four workloads were faster on one P and
	// each at least as steady (cluster_sweep, the one that gains from the
	// second vCPU: 3.9% between the quartiles and 6.5% end to end on one P,
	// 7.0% and 18% at Go's default). The probes that ask what a second core
	// allows put it back (onAllCPUs). README.md, "One P", has the numbers.
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	switch {
	case *summary != "":
		if err := traceSummary(os.Stdout, *summary); err != nil {
			fatal(err)
		}
	case *aa > 0:
		ok, err := runAA(ctx, os.Stdout, *aa, *seed, *seconds, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		s, ok := specByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), " | ")))
		}
		if *smoke {
			s = s.smoke()
		} else {
			s = s.scaled(*seconds)
		}
		// The traced run generates its dataset itself, to time the generator.
		cache := datasetCache
		if *trace != 0 || *smoke {
			cache = ""
		}
		res, err := run(ctx, s, *seed, *trace != 0, *smoke, *out, cache)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// datasetCache is where the generated datasets are kept between the runs of
// one checkout, beside the binary and the build cache run.sh puts there.
var datasetCache = filepath.Join(".bench_build", "data")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// run makes one run of one workload in this process and returns the line
// the contract asks for. Diagnostics go to standard error.
func run(ctx context.Context, s spec, seed int64, traced, smoke bool, outDir, cacheDir string) (*outcome, error) {
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d rounds=%d traced=%v GOMAXPROCS=%d GOGC=%d\n",
		s.name, seed, s.rounds, traced, runtime.GOMAXPROCS(0), gogc())
	p, err := prepare(ctx, s, seed, outDir, cacheDir)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	defer os.RemoveAll(p.dir)
	var (
		m       *measured
		metrics map[string]metric
	)
	if traced {
		m, metrics, err = perLayer(ctx, p, outDir)
	} else {
		m, err = measure(ctx, p)
		if err == nil {
			metrics, err = m.endToEnd(smoke)
		}
	}
	if err != nil {
		return nil, err
	}
	for r, rd := range m.rounds {
		fmt.Fprintf(os.Stderr, "bench: round %d: setup %.3fs wall %.3fs cpu %.3fs alloc %.1fMB\n",
			r, rd.setup.Seconds(), rd.wall.Seconds(), rd.cpu.Seconds(), float64(rd.allocB)/(1<<20))
	}
	for _, msg := range m.problems {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", msg)
	}
	for _, kind := range []string{"create", "step", "apply", "rec", "back", "delete"} {
		if l := m.latencies(kind); len(l) > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d %s, clean mean %.4f ms\n", len(l), kind, mean(l))
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %d operations, %d steps per round, fail_frac=%g\n",
		len(m.rounds[0].ops), m.rounds[0].steps, float64(m.failed)/float64(m.attempted))
	return &outcome{
		Correct:   m.failed == 0 && len(m.problems) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	}, nil
}

// gogc reads the collector's target without changing it.
func gogc() int {
	v := debug.SetGCPercent(100)
	debug.SetGCPercent(v)
	return v
}
