package core

import (
	"time"

	"subdex/internal/engine"
	"subdex/internal/obs"
)

// Instruments bundles the SDE Engine's telemetry: session and step
// counters, latency histograms for step execution and recommendation
// scoring. The RM-Generator's hot-path metrics are Generator.Metrics. The
// zero value holds nil instruments, which record nothing.
type Instruments struct {
	// SessionsStarted counts sessions created by NewSession, not the
	// ones restored from a snapshot (subdex_sessions_started_total).
	SessionsStarted *obs.Counter
	// StepsDegraded counts steps that returned anytime (deadline-degraded)
	// results (subdex_steps_degraded_total).
	StepsDegraded *obs.Counter
	// StepLatency is the end-to-end per-step histogram in seconds —
	// the paper's §6 interactive-speed signal, and the step count
	// (subdex_step_duration_seconds, its _count).
	StepLatency *obs.Histogram
	// GenLatency times rating-map generation within a step
	// (subdex_generation_duration_seconds).
	GenLatency *obs.Histogram
	// RecLatency times recommendation scoring within a step
	// (subdex_recommendation_duration_seconds).
	RecLatency *obs.Histogram
	// RecCandidates counts candidate operations evaluated by the
	// Recommendation Builder (subdex_recommendation_candidates_total).
	RecCandidates *obs.Counter
}

// NewInstruments registers the core instruments on r (nil r → the zero
// Instruments).
func NewInstruments(r *obs.Registry) Instruments {
	return Instruments{
		SessionsStarted: r.Counter("subdex_sessions_started_total",
			"Exploration sessions created."),
		StepsDegraded: r.Counter("subdex_steps_degraded_total",
			"Exploration steps degraded to anytime results by a deadline."),
		StepLatency: r.Histogram("subdex_step_duration_seconds",
			"End-to-end duration of one exploration step (generation + recommendations)."),
		GenLatency: r.Histogram("subdex_generation_duration_seconds",
			"Duration of rating-map generation within a step."),
		RecLatency: r.Histogram("subdex_recommendation_duration_seconds",
			"Duration of recommendation scoring within a step."),
		RecCandidates: r.Counter("subdex_recommendation_candidates_total",
			"Candidate operations evaluated by the Recommendation Builder."),
	}
}

// stepDone records one finished step.
func (in Instruments) stepDone(total, gen, rec time.Duration, recCandidates int, degraded bool) {
	if degraded {
		in.StepsDegraded.Inc()
	}
	in.StepLatency.ObserveDuration(total)
	in.GenLatency.ObserveDuration(gen)
	if rec > 0 {
		in.RecLatency.ObserveDuration(rec)
	}
	in.RecCandidates.Add(int64(recCandidates))
}

// Instrument attaches a metrics registry to the explorer: core-level
// counters/histograms plus the RM-Generator's hot-path metrics. Pass nil
// to detach. Call it once at startup, before serving sessions.
func (ex *Explorer) Instrument(r *obs.Registry) {
	ex.Ins, ex.Gen.Metrics = NewInstruments(r), engine.NewMetrics(r)
}
