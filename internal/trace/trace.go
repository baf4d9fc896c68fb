// Package trace records exploration sessions as JSON-lines files and plays
// them back. Session logs are the raw material of the log-based next-step
// recommenders the paper positions against (Eirinaki et al. [23], Milo &
// Somech [42]) and of its own personalization remark (§5.2.2): a persisted
// trace can seed a core.LogAffinityScorer, be replayed against a new
// database version, or drive regression comparisons of exploration paths.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"subdex/internal/core"
	"subdex/internal/query"
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

	// Telemetry (optional, version-1 compatible): persisted session logs
	// carry the same per-step signals the live /metrics endpoint exposes,
	// so log-based recommenders and offline latency analyses see them.

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

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if h.Version != 1 {
		return nil, fmt.Errorf("trace: unsupported version %d", h.Version)
	}
	tr := &Trace{Database: h.Database, Mode: h.Mode}
	for line := 2; sc.Scan(); line++ {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, sc.Err()
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

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Replay walks the trace's selections against an explorer, recomputing each
// step's display, and returns the per-step selection mismatches — empty when
// the engine still shows the same rating maps it showed when the trace was
// recorded (a regression check across engine or data changes).
func (tr *Trace) Replay(ex *core.Explorer) ([]string, error) {
	sess, err := core.NewSession(ex, core.UserDriven, query.Description{})
	if err != nil {
		return nil, err
	}
	var mismatches []string
	for _, ev := range tr.Events {
		d, err := ex.ParseDescription(ev.Selection)
		if err != nil {
			return nil, fmt.Errorf("trace: step %d: %w", ev.Step, err)
		}
		if err := sess.ApplyDescription(d); err != nil {
			return nil, fmt.Errorf("trace: step %d: %w", ev.Step, err)
		}
		st, err := sess.Step()
		if err != nil {
			return nil, fmt.Errorf("trace: step %d: %w", ev.Step, err)
		}
		got := make([]string, 0, len(st.Maps))
		for _, rm := range st.Maps {
			got = append(got, fmt.Sprintf("%s.%s/%s", rm.Side, rm.Attr, rm.DimName))
		}
		if !sameStrings(got, ev.Maps) {
			mismatches = append(mismatches,
				fmt.Sprintf("step %d: recorded %v, got %v", ev.Step, ev.Maps, got))
		}
	}
	return mismatches, nil
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
