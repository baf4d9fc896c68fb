package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"subdex"
	"subdex/internal/ratingmap"
)

// printWhy answers `why <n>`: the four criterion values map n of the last
// step was ranked by — the engine's own, against what was seen before the
// step — with the winner marked.
func printWhy(w io.Writer, steps []*subdex.StepResult, arg string) {
	n, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil || n < 1 || len(steps) == 0 || n > len(steps[len(steps)-1].Maps) {
		fmt.Fprintln(w, "usage: why <map number from the last step>")
		return
	}
	last := steps[len(steps)-1]
	rm, scores := last.Maps[n-1], last.Scores[n-1]
	winner, _ := scores.Best()
	fmt.Fprintf(w, "map %d (%s.%s by %s) is shown because of its %s:\n", n, rm.Side, rm.Attr, rm.DimName, winner)
	for c := ratingmap.Criterion(0); c < ratingmap.NumCriteria; c++ {
		marker := "  "
		if c == winner {
			marker = "->"
		}
		fmt.Fprintf(w, " %s %-20v %.3f\n", marker, c, scores[c])
	}
}

// printProfile pretty-prints a step's EXPLAIN record: where the time
// went (generation vs recommendations, per engine phase), what the
// engine scanned and pruned, whether the accumulator cache served the
// step, and — when the step was cut short — why.
func printProfile(w io.Writer, p *subdex.StepProfile) {
	if p == nil {
		fmt.Fprintln(w, "no profile recorded for the last step")
		return
	}
	fmt.Fprintf(w, "step profile — %s (mode %s)\n", p.Selection, p.Mode)
	if p.TraceID != "" {
		fmt.Fprintf(w, "  trace:           %s\n", p.TraceID)
	}
	fmt.Fprintf(w, "  generation:      %.2fms   recommendations: %.2fms (%d candidates)\n",
		p.GenMS, p.RecMS, p.RecCandidates)
	fmt.Fprintf(w, "  group records:   %d\n", p.GroupSize)
	e := p.Engine
	if e == nil {
		// A cached or degenerate step may carry no engine breakdown.
		fmt.Fprintf(w, "  records folded:  %d\n", p.RecordsProcessed)
	} else {
		fmt.Fprintf(w, "  cache:           %s   workers: %d   shards: %d\n",
			e.Cache, e.Workers, e.Shards)
		fmt.Fprintf(w, "  records scanned: %d of %d\n", e.RecordsScanned, e.GroupRecords)
		fmt.Fprintf(w, "  candidates:      %d considered, pruned %d by CI + %d by MAB\n",
			e.Considered, e.PrunedCI, e.PrunedMAB)
		for _, ph := range e.Phases {
			fmt.Fprintf(w, "  phase %-2d         %8.2fms  %7d records  %3d alive  pruned %d+%d\n",
				ph.Phase, ph.DurationMS, ph.Records, ph.Alive, ph.PrunedCI, ph.PrunedMAB)
		}
		fmt.Fprintf(w, "  finalize:        %.2fms   engine total: %.2fms\n", e.FinalizeMS, e.TotalMS)
	}
	if p.RecommendationsSkipped {
		fmt.Fprintln(w, "  recommendations skipped (step deadline)")
	}
	if p.Degraded {
		reason := p.DegradedReason
		if reason == "" {
			reason = "deadline"
		}
		fmt.Fprintf(w, "  DEGRADED: anytime result (%s)\n", reason)
	}
}
