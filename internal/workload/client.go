// Package workload implements a seeded, fully deterministic simulated-
// explorer population for load, soak, and regression testing of the SDE
// engine. Each virtual user is a closed-loop client: it requests a step
// display, "reads" it for a think time drawn from its private RNG, picks
// the next operation from a configurable mix (follow a recommendation,
// drill into a displayed bar, go back, or hand control to the auto-pilot),
// and repeats.
//
// Users drive the engine through the Client interface, which has two
// implementations: InprocClient wraps a core.Session directly, and
// HTTPClient speaks the internal/server JSON API. A user's decisions
// depend only on its seed and on the content of the step displays it has
// seen — both clients normalize displays into the same StepView — so the
// same seed produces the same session path in both modes, byte for byte.
// That equivalence is what the golden-trace suite (golden.go,
// testdata/golden) and the in-process-vs-HTTP tests pin.
package workload

import (
	"context"
	"fmt"
	"strings"

	"subdex/internal/core"
)

// StepView is the mode-independent normal form of one step display. The
// in-process client derives it from core.StepResult, the HTTP client from
// the server's StepJSON; for the same session state both derivations are
// field-for-field identical.
type StepView struct {
	// Selection is the canonical predicate of the displayed rating group.
	Selection string
	// GroupSize is the number of rating records in the group.
	GroupSize int
	// Maps are the displayed rating maps in display (utility) order.
	Maps []MapView
	// Recommendations are the ranked next-step operations (guided modes).
	Recommendations []RecView
	// Degraded marks an anytime result cut short by a step deadline.
	Degraded bool
	// RecordsProcessed counts the records the engine folded in.
	RecordsProcessed int
	// TraceID is the correlation ID the step ran under. Both clients
	// surface the same ID for the same step (the HTTP client propagates it
	// via traceparent), but it stays out of golden records: goldens
	// compare runs, and different runs legitimately carry different IDs.
	TraceID string
	// Profile is the step's EXPLAIN record (the HTTP client requests it
	// with ?explain=1 on every step).
	Profile *core.StepProfile
}

// MapView is one displayed rating map.
type MapView struct {
	// GroupBy is the grouping attribute as "side.attr".
	GroupBy string
	// Dimension is the aggregated rating dimension's name.
	Dimension string
	// Utility is the map's dimension-weighted utility.
	Utility float64
	// Digest is the canonical byte-stable content fingerprint
	// (ratingmap.Digest): two maps digest equally iff their accumulated
	// counts are identical.
	Digest string
	// Bars lists the subgroup value labels in display order.
	Bars []string
}

// RecView is one ranked next-step recommendation.
type RecView struct {
	// Operation is the human-readable operation delta.
	Operation string
	// Target is the canonical predicate the operation moves to.
	Target string
	// Utility is the operation's Equation 2 utility.
	Utility float64
}

// SummaryView is the mode-independent form of a session's path summary.
type SummaryView struct {
	Steps              int            `json:"steps"`
	TotalUtility       float64        `json:"total_utility"`
	DistinctAttributes int            `json:"distinct_attributes"`
	AvgDiversity       float64        `json:"avg_diversity"`
	MapsPerDimension   map[string]int `json:"maps_per_dimension"`
}

// Digest renders the step's content fingerprint: the per-map digests
// joined exactly as ratingmap.DigestMaps does, so an in-process step and
// its HTTP rendering digest identically iff they display the same maps
// with the same accumulated counts.
func (sv *StepView) Digest() string {
	var b strings.Builder
	for _, m := range sv.Maps {
		b.WriteString(m.Digest)
		b.WriteByte('\n')
	}
	return b.String()
}

// Client is one exploration session as a virtual user drives it. Both
// implementations are single-session and not safe for concurrent use —
// a closed-loop user issues one operation at a time, matching the
// paper's one-step-at-a-time UI.
type Client interface {
	// Step executes one exploration step at the current selection.
	Step(ctx context.Context) (*StepView, error)
	// Apply moves the session to an explicit predicate (the user-provided
	// operation path).
	Apply(ctx context.Context, predicate string) error
	// ApplyRecommendation follows the i-th (0-based) recommendation of
	// the latest step.
	ApplyRecommendation(ctx context.Context, i int) error
	// Back returns to the previously visited selection, reporting false
	// when the history is empty.
	Back(ctx context.Context) (bool, error)
	// Summary returns the session's path summary so far.
	Summary(ctx context.Context) (*SummaryView, error)
	// Close releases the session.
	Close(ctx context.Context) error
}

// StatusError is a non-2xx response from the HTTP API, carried with its
// status code so the workload can tell admission rejections (429), busy
// sessions (409), and pre-phase deadline failures (504) apart from real
// errors. The in-process client never returns it.
type StatusError struct {
	Code int
	Msg  string
}

// Error renders the status code and the server's error message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Code, e.Msg)
}
