// Slow-step exemplars: the client-side half of trace correlation. Each
// virtual user keeps its K slowest step calls — with their trace IDs and
// EXPLAIN profiles — and the runner merges them into a population-wide
// top-K. sdeload persists the merged list in its verdict, so a
// "p99 = 63 ms" report ships the exact steps that produced the tail and
// the IDs to look them up with (/debug/spans?trace=<id> for the engine
// phase spans, /debug/flightrecorder?trace=<id> for the wide event).

package workload

import (
	"sort"

	"subdex/internal/core"
)

// Exemplar records one of the slowest observed step calls.
type Exemplar struct {
	// User and Step locate the call in the workload (Step counts the
	// user's executed step displays, 1-based, as of this call).
	User int `json:"user"`
	Step int `json:"step"`
	// Op is the client operation that produced the display: "step" or
	// "auto" (an auto-pilot burst, timed as a whole).
	Op string `json:"op"`
	// DurationMS is the client-observed wall time of the call, including
	// transport in HTTP mode.
	DurationMS float64 `json:"duration_ms"`
	// TraceID resolves the call server-side.
	TraceID string `json:"trace_id"`
	// Degraded marks an anytime result (for "auto": any step of the burst).
	Degraded bool `json:"degraded"`
	// Profile is the step's EXPLAIN record (the burst's last step for
	// "auto"), when the client surfaced one.
	Profile *core.StepProfile `json:"profile,omitempty"`
}

// insertExemplar keeps list as the k slowest exemplars, sorted by
// descending duration (ties keep insertion order stable via user/step).
func insertExemplar(list []Exemplar, e Exemplar, k int) []Exemplar {
	if k <= 0 {
		return list
	}
	list = append(list, e)
	sortExemplars(list)
	if len(list) > k {
		list = list[:k]
	}
	return list
}

// mergeExemplars combines per-user top-K lists into one population-wide
// top-K.
func mergeExemplars(lists [][]Exemplar, k int) []Exemplar {
	if k <= 0 {
		return nil
	}
	var all []Exemplar
	for _, l := range lists {
		all = append(all, l...)
	}
	sortExemplars(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sortExemplars orders by descending duration with a deterministic
// (user, step) tiebreak, so merged reports are stable run to run.
func sortExemplars(list []Exemplar) {
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].DurationMS != list[j].DurationMS {
			return list[i].DurationMS > list[j].DurationMS
		}
		if list[i].User != list[j].User {
			return list[i].User < list[j].User
		}
		return list[i].Step < list[j].Step
	})
}
