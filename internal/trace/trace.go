// Package trace records exploration sessions as JSON-lines files and reads
// them back. Session logs are the raw material of the log-based next-step
// recommenders the paper positions against (Eirinaki et al. [23], Milo &
// Somech [42]); the subdex REPL's `save` writes one, and the workload
// harness's golden traces are built from its Event.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"subdex/internal/core"
)

// Event is one step of an exploration session.
type Event struct {
	// Step is the 1-based step number.
	Step int `json:"step"`
	// Selection is the canonical predicate of the examined rating group.
	Selection string `json:"selection"`
	// GroupSize is the number of rating records in the group.
	GroupSize int `json:"group_size"`
	// Maps lists the displayed rating maps as "side.attr/dimension".
	Maps []string `json:"maps"`
	// Utilities aligns with Maps.
	Utilities []float64 `json:"utilities"`
	// ChosenOp is the operation applied after this step ("" on the last).
	ChosenOp string `json:"chosen_op,omitempty"`
	// At is the wall-clock time the step was recorded.
	At time.Time `json:"at"`

	// Telemetry (optional, version-1 compatible): the step's own numbers.
	// DurationMS and RecommendationMS are the values /metrics observes
	// into subdex_generation_duration_seconds and
	// subdex_recommendation_duration_seconds; the candidate and prune
	// counts are the step's own scan only, while /metrics' engine counters
	// also add every TopMaps call of the recommendation pass.

	// DurationMS is the rating-map generation wall-clock time of the step
	// in milliseconds; RecommendationMS the recommendation-scoring time.
	DurationMS       float64 `json:"duration_ms,omitempty"`
	RecommendationMS float64 `json:"recommendation_ms,omitempty"`
	// Considered is the initial rating-map candidate count; PrunedCI and
	// PrunedMAB count candidates eliminated by each pruning scheme.
	Considered int `json:"considered,omitempty"`
	PrunedCI   int `json:"pruned_ci,omitempty"`
	PrunedMAB  int `json:"pruned_mab,omitempty"`
	// Degraded marks a step that was cut short by its compute deadline and
	// returned anytime results over a RecordsProcessed-record prefix of
	// the group (version-1 compatible: absent means a complete scan).
	Degraded         bool `json:"degraded,omitempty"`
	RecordsProcessed int  `json:"records_processed,omitempty"`
	// TraceID is the correlation ID the step ran under, linking the logged
	// step to its engine spans (/debug/spans?trace=) and flight-recorder
	// wide event. Deliberately excluded from golden-trace records, which
	// compare runs under different IDs.
	TraceID string `json:"trace_id,omitempty"`
}

// Trace is an ordered session log.
type Trace struct {
	// Database names the explored dataset.
	Database string `json:"database"`
	// Mode is the exploration mode the session ran in.
	Mode   string  `json:"mode"`
	Events []Event `json:"-"`
}

// FromSession builds a trace from a session's executed steps. The chosen
// operation of step i is inferred from the selection of step i+1.
func FromSession(sess *core.Session) *Trace {
	tr := &Trace{Database: sess.Ex.DB.Name, Mode: sess.Mode.String()}
	steps := sess.Steps()
	for i, st := range steps {
		ev := Event{
			Step:             i + 1,
			Selection:        st.Desc.String(),
			GroupSize:        st.GroupSize,
			At:               time.Now(),
			DurationMS:       float64(st.GenDuration.Microseconds()) / 1000,
			RecommendationMS: float64(st.RecDuration.Microseconds()) / 1000,
			Considered:       st.Considered,
			PrunedCI:         st.PrunedCI,
			PrunedMAB:        st.PrunedMAB,
			Degraded:         st.Degraded,
			RecordsProcessed: st.RecordsProcessed,
			TraceID:          st.TraceID,
		}
		for j, rm := range st.Maps {
			ev.Maps = append(ev.Maps, fmt.Sprintf("%s.%s/%s", rm.Side, rm.Attr, rm.DimName))
			ev.Utilities = append(ev.Utilities, st.Utilities[j])
		}
		if i+1 < len(steps) {
			ev.ChosenOp = steps[i+1].Desc.String()
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

// header is the first JSONL line.
type header struct {
	Database string `json:"database"`
	Mode     string `json:"mode"`
	Version  int    `json:"version"`
}

// Write serializes the trace as JSON lines: a header line followed by one
// line per event.
func (tr *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Database: tr.Database, Mode: tr.Mode, Version: 1}); err != nil {
		return err
	}
	for _, ev := range tr.Events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Save writes the trace to a file.
func (tr *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
