// Command subdex is an interactive terminal explorer for subjective
// databases — the CLI counterpart of the paper's HTML UI (Figure 5). It
// loads a CSV database (or generates a synthetic one), then runs a
// read-eval-print exploration session:
//
//	subdex -generate yelp -scale 0.02
//	subdex -data ./data/yelp -mode rp
//
// At each step the current rating group's top rating maps are rendered; in
// guided modes the top next-step recommendations follow. Commands:
//
//	filter <table>.<attr> = '<value>'   drill down
//	drop <table>.<attr>                 roll up one selector
//	where <SQL predicate>               jump to a selection (advanced screen)
//	rec <n>                             apply recommendation n
//	auto <m>                            run m fully-automated steps
//	back                                return to the previous selection
//	why <n>                             explain why map n was selected
//	explain                             profile the last step (phases, prunes, cache)
//	save <file>                         write the session trace as JSONL
//	vega <n> <file>                     export map n as a Vega-Lite spec
//	metrics                             dump engine telemetry (Prometheus text)
//	show                                re-display the current step
//	reset                               back to the whole database
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"subdex"
	"subdex/internal/core"
	"subdex/internal/daemon"
	"subdex/internal/query"
	"subdex/internal/trace"
)

// metricsReg is the CLI's telemetry registry, dumped by `metrics`.
var metricsReg *subdex.Registry

func main() {
	var (
		data     = flag.String("data", "", "CSV directory written by datagen")
		generate = flag.String("generate", "", "generate a synthetic dataset: demo | movielens | yelp | hotels")
		scale    = flag.Float64("scale", 0.02, "scale for -generate")
		seed     = flag.Int64("seed", 1, "seed for -generate")
		mode     = flag.String("mode", "rp", "exploration mode: ud | rp | fa")
		k        = flag.Int("k", 3, "rating maps per step")
		o        = flag.Int("o", 3, "recommendations per step")
		l        = flag.Int("l", 3, "pruning-diversity factor")
	)
	flag.Parse()

	db, err := daemon.LoadDataset(*data, *generate, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "subdex:", err)
		os.Exit(1)
	}

	cfg := subdex.DefaultConfig()
	cfg.K, cfg.O, cfg.L = *k, *o, *l
	ex, err := subdex.NewExplorer(db, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "subdex:", err)
		os.Exit(1)
	}
	// Collect engine telemetry for the `metrics` command.
	metricsReg = subdex.NewRegistry()
	ex.Instrument(metricsReg)

	m, err := core.ParseModeToken(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "subdex: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	sess, err := subdex.NewSession(ex, m, subdex.Everything())
	if err != nil {
		fmt.Fprintln(os.Stderr, "subdex:", err)
		os.Exit(1)
	}

	s := db.Stats()
	fmt.Printf("SubDEx — %s: %d reviewers, %d items, %d ratings, %d rating dimensions. Mode: %s.\n",
		s.Name, s.NumReviewers, s.NumItems, s.NumRatings, s.NumDimensions, m)
	fmt.Println("Type 'help' for commands.")

	display(ex, sess)
	in := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line != "" {
			if quit := handle(ex, sess, line); quit {
				return
			}
		}
		fmt.Print("> ")
	}
}

func criterionName(c int) string {
	names := []string{"conciseness", "agreement", "self-peculiarity", "global-peculiarity"}
	if c < len(names) {
		return names[c]
	}
	return "?"
}

// display runs one step and renders it.
func display(ex *subdex.Explorer, sess *subdex.Session) {
	step, err := sess.Step()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("\nSelection: %s  (%d records, %d reviewers, %d items)\n",
		step.Desc, step.GroupSize, step.NumMatched.Reviewers, step.NumMatched.Items)
	for i, rm := range step.Maps {
		fmt.Printf("\n[map %d, utility %.3f]\n%s", i+1, step.Utilities[i], ex.RenderMap(rm))
	}
	if len(step.Recommendations) > 0 {
		fmt.Println("\nRecommended next steps:")
		for i, rec := range step.Recommendations {
			fmt.Printf("  %d. (%.3f) %s\n", i+1, rec.Utility, rec.Op)
		}
	}
	fmt.Printf("\n[step %d | generated in %v, recommendations in %v | pruned %d+%d of %d candidates]\n",
		sess.NumSteps(), step.GenDuration.Round(1e6), step.RecDuration.Round(1e6),
		step.PrunedCI, step.PrunedMAB, step.Considered)
}

// handle executes one REPL command; returns true to quit.
func handle(ex *subdex.Explorer, sess *subdex.Session, line string) bool {
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	rest := strings.TrimSpace(line[len(fields[0]):])
	switch cmd {
	case "quit", "exit", "q":
		return true
	case "help":
		fmt.Println("commands: filter <t>.<a> = '<v>' | drop <t>.<a> | where <predicate> | rec <n> | auto <m> | back | why <n> | explain | save <file> | vega <n> <file> | metrics | show | reset | quit")
	case "explain":
		steps := sess.Steps()
		if len(steps) == 0 {
			fmt.Println("no step to explain yet")
			return false
		}
		printProfile(os.Stdout, steps[len(steps)-1].Profile)
	case "metrics":
		// Dump the session's accumulated telemetry in Prometheus text
		// format — the same shape subdexd serves at /metrics.
		if err := metricsReg.WritePrometheus(os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
	case "show":
		display(ex, sess)
	case "reset":
		if err := sess.ApplyDescription(subdex.Everything()); err != nil {
			fmt.Println("error:", err)
			return false
		}
		display(ex, sess)
	case "vega":
		args := strings.Fields(rest)
		steps := sess.Steps()
		if len(args) != 2 || len(steps) == 0 {
			fmt.Println("usage: vega <map number> <file>")
			return false
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 || n > len(steps[len(steps)-1].Maps) {
			fmt.Println("usage: vega <map number> <file>")
			return false
		}
		rm := steps[len(steps)-1].Maps[n-1]
		spec, err := rm.VegaLiteSpec(ex.DictFor(rm))
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		if err := os.WriteFile(args[1], spec, 0o644); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("wrote Vega-Lite spec for map %d to %s\n", n, args[1])
	case "save":
		path := strings.TrimSpace(rest)
		if path == "" {
			fmt.Println("usage: save <file>")
			return false
		}
		if err := trace.FromSession(sess).Save(path); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("wrote %d steps to %s\n", sess.NumSteps(), path)
	case "back":
		if !sess.Back() {
			fmt.Println("nothing to go back to")
			return false
		}
		display(ex, sess)
	case "why":
		n, err := strconv.Atoi(strings.TrimSpace(rest))
		steps := sess.Steps()
		if err != nil || n < 1 || len(steps) == 0 || n > len(steps[len(steps)-1].Maps) {
			fmt.Println("usage: why <map number from the last step>")
			return false
		}
		rm := steps[len(steps)-1].Maps[n-1]
		scores, winner := ex.ExplainMap(rm, sess.Seen())
		fmt.Printf("map %d (%s.%s by %s) is shown because of its %s:\n", n, rm.Side, rm.Attr, rm.DimName, winner)
		for c := 0; c < len(scores); c++ {
			marker := "  "
			if c == int(winner) {
				marker = "->"
			}
			fmt.Printf(" %s %-20v %.3f\n", marker, criterionName(c), scores[c])
		}
	case "where", "filter":
		pred := rest
		if cmd == "filter" {
			// filter extends the current selection.
			cur := sess.Current().String()
			if cur != "TRUE" {
				pred = cur + " AND " + rest
			}
		}
		d, err := ex.ParseDescription(pred)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		if err := sess.ApplyDescription(d); err != nil {
			fmt.Println("error:", err)
			return false
		}
		display(ex, sess)
	case "drop":
		name := strings.TrimSpace(rest)
		table, attr, ok := strings.Cut(name, ".")
		if !ok {
			fmt.Println("usage: drop <table>.<attr>")
			return false
		}
		side := query.ReviewerSide
		if strings.HasPrefix(strings.ToLower(table), "item") {
			side = query.ItemSide
		}
		cur := sess.Current()
		v, bound := cur.ValueOf(side, attr)
		if !bound {
			fmt.Printf("attribute %s is not bound\n", name)
			return false
		}
		d, err := cur.Without(query.Selector{Side: side, Attr: attr, Value: v})
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		if err := sess.ApplyDescription(d); err != nil {
			fmt.Println("error:", err)
			return false
		}
		display(ex, sess)
	case "rec":
		n, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil || n < 1 {
			fmt.Println("usage: rec <n>")
			return false
		}
		if err := sess.ApplyRecommendation(n - 1); err != nil {
			fmt.Println("error:", err)
			return false
		}
		display(ex, sess)
	case "auto":
		m, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil || m < 1 {
			fmt.Println("usage: auto <m>")
			return false
		}
		steps, err := sess.Auto(m)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		for _, st := range steps {
			fmt.Printf("auto step: %s (%d records, utility %.2f)\n", st.Desc, st.GroupSize, st.TotalUtility())
		}
	default:
		fmt.Printf("unknown command %q (try 'help')\n", cmd)
	}
	return false
}
