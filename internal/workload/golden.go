package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"subdex/internal/trace"
)

// Record is one step of a golden exploration trace: the canonical
// trace.Event of the step plus the byte-stable content digests of the
// displayed maps and the rendered recommendation list. Every field is
// deterministic for a pinned seed — wall-clock and telemetry fields are
// zeroed — so a golden file is reproducible byte for byte, and any
// divergence (generator drift, engine ranking change, recommendation
// reordering, serialization change) fails the replay test.
type Record struct {
	// Event carries step number, selection, group size, maps (as
	// "side.attr/dimension"), utilities, and the operation the simulated
	// user chose after the step (in ChosenOp, e.g. "recommend:1",
	// "drill:items.roast='dark'", "back", "auto:3").
	Event trace.Event `json:"event"`
	// MapDigests are the ratingmap.Digest strings of the displayed maps,
	// in display order — the byte-level pin on the histograms themselves.
	MapDigests []string `json:"map_digests,omitempty"`
	// Recommendations render each ranked operation with its exact utility.
	Recommendations []string `json:"recommendations,omitempty"`
}

// NewRecord builds the golden record of one step display. op annotates
// the operation chosen after the step ("" when not yet decided; the user
// loop fills it in once it draws).
func NewRecord(step int, sv *StepView, op string) Record {
	rec := Record{Event: trace.Event{
		Step:      step,
		Selection: sv.Selection,
		GroupSize: sv.GroupSize,
		ChosenOp:  op,
		Degraded:  sv.Degraded,
	}}
	for _, m := range sv.Maps {
		rec.Event.Maps = append(rec.Event.Maps, m.GroupBy+"/"+m.Dimension)
		rec.Event.Utilities = append(rec.Event.Utilities, m.Utility)
		rec.MapDigests = append(rec.MapDigests, m.Digest)
	}
	for _, r := range sv.Recommendations {
		rec.Recommendations = append(rec.Recommendations,
			fmt.Sprintf("%s => %s (u=%s)", r.Operation, r.Target,
				strconv.FormatFloat(r.Utility, 'g', -1, 64)))
	}
	return rec
}

// WriteGolden serializes records as JSON lines, one record per line —
// the golden-trace file format under testdata/golden.
func WriteGolden(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MarshalGolden renders records to the exact bytes WriteGolden would
// produce, for byte-level comparison against a checked-in golden file.
func MarshalGolden(recs []Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteGolden(&buf, recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadGolden parses a golden-trace file written by WriteGolden.
func ReadGolden(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var out []Record
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("workload: golden line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// DiffRecords renders a readable field-level account of how got diverges
// from want — the error message of a golden-trace failure. It reports at
// most a handful of differences per step so a real regression stays
// legible.
func DiffRecords(want, got []Record) []string {
	var out []string
	if len(want) != len(got) {
		out = append(out, fmt.Sprintf("step count: want %d, got %d", len(want), len(got)))
	}
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		w, g := want[i], got[i]
		step := w.Event.Step
		if w.Event.Selection != g.Event.Selection {
			out = append(out, fmt.Sprintf("step %d selection: want %q, got %q", step, w.Event.Selection, g.Event.Selection))
		}
		if w.Event.GroupSize != g.Event.GroupSize {
			out = append(out, fmt.Sprintf("step %d group size: want %d, got %d", step, w.Event.GroupSize, g.Event.GroupSize))
		}
		if w.Event.ChosenOp != g.Event.ChosenOp {
			out = append(out, fmt.Sprintf("step %d chosen op: want %q, got %q", step, w.Event.ChosenOp, g.Event.ChosenOp))
		}
		if w.Event.Degraded != g.Event.Degraded {
			out = append(out, fmt.Sprintf("step %d degraded: want %v, got %v", step, w.Event.Degraded, g.Event.Degraded))
		}
		out = append(out, diffStrings(step, "map", w.Event.Maps, g.Event.Maps)...)
		out = append(out, diffFloats(step, "utility", w.Event.Utilities, g.Event.Utilities)...)
		out = append(out, diffStrings(step, "map digest", w.MapDigests, g.MapDigests)...)
		out = append(out, diffStrings(step, "recommendation", w.Recommendations, g.Recommendations)...)
	}
	return out
}

// DiffRuns byte-compares two recorded runs of one population user by
// user (Config.Record) and returns human-readable divergences, empty when
// every user's golden trace is identical — the differential harnesses'
// verdict on "the same walk against a different server".
func DiffRuns(base, got *Result) []string {
	var out []string
	if len(base.Users) != len(got.Users) {
		out = append(out, fmt.Sprintf("%d users against %d", len(got.Users), len(base.Users)))
	}
	for i := 0; i < min(len(base.Users), len(got.Users)); i++ {
		want, have := base.Users[i].Records, got.Users[i].Records
		wb, err1 := MarshalGolden(want)
		gb, err2 := MarshalGolden(have)
		diffs := DiffRecords(want, have)
		switch {
		case err1 != nil || err2 != nil:
			diffs = []string{fmt.Sprintf("marshal failed: %v %v", err1, err2)}
		case bytes.Equal(wb, gb):
			continue
		case len(diffs) == 0: // a field DiffRecords does not itemize
			diffs = []string{"golden bytes differ"}
		}
		for _, d := range diffs {
			out = append(out, fmt.Sprintf("user %d: %s", i, d))
		}
	}
	return out
}

func diffStrings(step int, what string, want, got []string) []string {
	var out []string
	if len(want) != len(got) {
		return []string{fmt.Sprintf("step %d %s count: want %d, got %d", step, what, len(want), len(got))}
	}
	for i := range want {
		if want[i] != got[i] {
			out = append(out, fmt.Sprintf("step %d %s[%d]: want %q, got %q", step, what, i, truncate(want[i]), truncate(got[i])))
		}
	}
	return out
}

func diffFloats(step int, what string, want, got []float64) []string {
	var out []string
	if len(want) != len(got) {
		return []string{fmt.Sprintf("step %d %s count: want %d, got %d", step, what, len(want), len(got))}
	}
	for i := range want {
		if want[i] != got[i] {
			out = append(out, fmt.Sprintf("step %d %s[%d]: want %v, got %v", step, what, i, want[i], got[i]))
		}
	}
	return out
}

// truncate keeps long digests readable in failure messages.
func truncate(s string) string {
	const limit = 160
	if len(s) <= limit {
		return s
	}
	return s[:limit] + "…"
}
