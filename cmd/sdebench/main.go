// Command sdebench regenerates the paper's evaluation artifacts. Each
// experiment id corresponds to one table or figure of §5 (see DESIGN.md for
// the per-experiment index):
//
//	sdebench -list
//	sdebench -run fig7 -scale 0.05 -subjects 30
//	sdebench -run all -scale 0.02
//
// Scale 1.0 reproduces the paper's dataset sizes; the default keeps a full
// run affordable on a laptop while preserving every reported shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"subdex/internal/experiments"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment id to run, or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Float64("scale", 0.05, "dataset scale (1.0 = paper size)")
		seed     = flag.Int64("seed", 1, "generation and simulation seed")
		subjects = flag.Int("subjects", 30, "simulated subjects per treatment cell")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("Available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Title)
		}
		if *run == "" {
			fmt.Println("\nUse -run <id> or -run all.")
		}
		return
	}

	params := experiments.Params{
		Scale:    *scale,
		Seed:     *seed,
		Subjects: *subjects,
		Out:      os.Stdout,
	}

	var toRun []experiments.Experiment
	if *run == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.Lookup(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "sdebench: unknown experiment %q (use -list)\n", *run)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	}

	for _, e := range toRun {
		start := time.Now()
		if err := e.Run(params); err != nil {
			fmt.Fprintf(os.Stderr, "sdebench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
