// Command sdebench regenerates the paper's evaluation artifacts. Each
// experiment id corresponds to one table or figure of §5 (see DESIGN.md for
// the per-experiment index), and prints its tables as markdown:
//
//	sdebench -list
//	sdebench -run fig7
//	sdebench -run all
//
// With no flags it runs at the documented point (experiments.DefaultScale,
// DefaultSeed, DefaultSubjects), and its output is EXPERIMENTS.md's §5
// blocks byte for byte. -scale 1.0 reproduces the paper's dataset sizes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"subdex/internal/experiments"
)

func main() {
	var p experiments.Params
	run := flag.String("run", "", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	flag.Float64Var(&p.Scale, "scale", experiments.DefaultScale, "dataset scale (1.0 = paper size)")
	flag.Int64Var(&p.Seed, "seed", experiments.DefaultSeed, "generation and simulation seed")
	flag.IntVar(&p.Subjects, "subjects", experiments.DefaultSubjects, "simulated subjects per treatment cell")
	flag.Parse()
	os.Exit(bench(*run, *list, p, os.Stdout, os.Stderr))
}

// bench runs the -run experiments at p, printing their tables to stdout
// and each one's duration to stderr, and returns the exit status: 2 for a
// usage error, 1 for a failed experiment.
func bench(run string, list bool, p experiments.Params, stdout, stderr io.Writer) int {
	if list || run == "" {
		fmt.Fprintln(stdout, "Available experiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-9s %s\n", e.ID, e.Title)
		}
		if run == "" {
			fmt.Fprintln(stdout, "\nUse -run <id> or -run all.")
		}
		return 0
	}
	if p.Scale <= 0 || p.Subjects <= 0 {
		fmt.Fprintf(stderr, "sdebench: -scale (%g) and -subjects (%d) must be positive\n", p.Scale, p.Subjects)
		return 2
	}
	toRun := experiments.All()
	if run != "all" {
		e, ok := experiments.Lookup(run)
		if !ok {
			fmt.Fprintf(stderr, "sdebench: unknown experiment %q (use -list)\n", run)
			return 2
		}
		toRun = []experiments.Experiment{e}
	}
	for i, e := range toRun {
		start := time.Now()
		tables, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(stderr, "sdebench: %s: %v\n", e.ID, err)
			return 1
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, experiments.Render(tables))
		fmt.Fprintf(stderr, "[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
