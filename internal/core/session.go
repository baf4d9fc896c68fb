package core

import (
	"context"
	"fmt"
	"time"

	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Session is one exploration: a current description, the history of seen
// rating maps (driving global peculiarity and dimension weights), and the
// step log. Sessions are mode-agnostic; the mode decides who supplies each
// operation.
//
// Steps are threaded through the explorer's cross-step accumulator cache
// (Explorer.Gen.Cache): when an exploration walk revisits a
// selection — filter → generalize → filter, the Back button, or a
// recommendation target evaluated on an earlier step — the engine skips
// the aggregation scan and re-finalizes the cached histograms against the
// session's *current* seen set, so cached steps are indistinguishable
// from recomputed ones.
type Session struct {
	Ex   *Explorer
	Mode Mode

	cur     query.Description
	seen    *ratingmap.SeenSet
	steps   []*StepResult
	rb      RecommendationBuilder
	history []query.Description // selections visited, for Back

	start query.Description // the selection the session began at
	oplog []SessionOp       // every committed operation, for snapshot/replay
}

// NewSession starts a session at the given description (use the zero
// Description to start from the whole database).
func NewSession(ex *Explorer, mode Mode, start query.Description) (*Session, error) {
	if err := ex.Query.Validate(start); err != nil {
		return nil, err
	}
	ex.Ins.sessionStarted()
	return &Session{Ex: ex, Mode: mode, cur: start, start: start,
		seen: ratingmap.NewSeenSet(), rb: RecommendationBuilder{Ex: ex}}, nil
}

// Current returns the session's current description.
func (s *Session) Current() query.Description { return s.cur }

// Seen returns the history of displayed rating maps.
func (s *Session) Seen() *ratingmap.SeenSet { return s.seen }

// Steps returns the executed step results, oldest first.
func (s *Session) Steps() []*StepResult { return s.steps }

// NumSteps returns how many steps have been displayed.
func (s *Session) NumSteps() int { return len(s.steps) }

// Step runs one exploration step at the current description: it selects and
// commits the k diverse high-utility rating maps, and — in guided modes —
// attaches the top-o next-step recommendations. The displayed maps are
// added to the seen set *before* recommendations are evaluated, matching
// the paper's ordering (an operation's utility depends on the maps "seen by
// the user up to this step").
//
// Step is an XCtx compatibility shim: a context-free wrapper F that
// delegates to FCtx with context.Background(), keeping the pre-context
// API alive. Shims like this (Step, engine.Generator.TopMaps,
// Explorer.RMSet) are the only non-main, non-test call sites where the
// ctxflow analyzer permits minting a root context.
func (s *Session) Step() (*StepResult, error) {
	return s.StepCtx(context.Background())
}

// StepCtx is Step with span propagation and a compute deadline: under a
// context carrying an obs sink (see obs.WithSink) the whole step is
// recorded as one "core.step" span tree — rating-map generation, engine
// phases, and recommendation scoring as children — and, when the explorer
// is instrumented, the step/recommendation latency histograms and
// counters are updated.
//
// When Config.StepTimeout is set (> 0), the context is additionally
// bounded by it. A deadline hitting after the engine's first phase
// boundary degrades the step to an anytime result (StepResult.Degraded,
// with RecordsProcessed reporting the scanned prefix) and skips the
// recommendation pass; one hitting during the recommendation pass stops
// it and degrades the step the same way; a deadline hitting before any
// phase completes returns the context's error.
func (s *Session) StepCtx(ctx context.Context) (*StepResult, error) {
	start := time.Now()
	if t := s.Ex.Cfg.StepTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	ctx, span := obs.StartSpan(ctx, "core.step")
	span.SetAttr("selection", s.cur.String())
	span.SetAttr("mode", s.Mode.String())
	defer span.End()
	res, err := s.Ex.RMSetCtx(ctx, s.cur, s.seen)
	if err != nil {
		return nil, err
	}
	for _, rm := range res.Maps {
		s.seen.Add(rm)
	}
	if s.Mode != UserDriven { // no recommendations in user-driven mode
		if err := s.recommend(ctx, span, res); err != nil {
			return nil, err
		}
	}
	if res.Degraded {
		span.SetAttr("degraded", true)
	}
	s.finishProfile(ctx, res)
	s.steps = append(s.steps, res)
	s.oplog = append(s.oplog, stepOp(res))
	s.Ex.Ins.stepDone(time.Since(start), res.GenDuration, res.RecDuration, len(res.RecOpDurations), res.Degraded)
	return res, nil
}

// recommend attaches the recommendation pass to res. When the step budget
// is spent — before the pass, which would start a fresh full-cost
// computation, or part-way through it — the pass is dropped whole and the
// step reports degradation instead.
func (s *Session) recommend(ctx context.Context, span *obs.Span, res *StepResult) error {
	if ctx.Err() == nil {
		recStart := time.Now()
		recs, durs, err := s.rb.RecommendCtx(ctx, s.cur, res.Maps, s.seen, s.Ex.Cfg.O)
		if err == nil {
			res.Recommendations, res.RecOpDurations, res.RecDuration = recs, durs, time.Since(recStart)
			return nil
		}
		if ctx.Err() == nil {
			return err
		}
	}
	res.Degraded = true
	span.SetAttr("recommendations_skipped", true)
	return nil
}

// finishProfile completes the step's EXPLAIN record with the step-level
// fields rmSetForGroup cannot know: the trace ID, mode, timings, and the
// recommendation-pass outcome.
func (s *Session) finishProfile(ctx context.Context, res *StepResult) {
	res.TraceID = string(obs.TraceIDFrom(ctx))
	p := res.Profile
	if p == nil {
		p = &StepProfile{GroupSize: res.GroupSize, RecordsProcessed: res.RecordsProcessed}
		res.Profile = p
	}
	p.TraceID = res.TraceID
	p.Selection = res.Desc.String()
	p.Mode = s.Mode.String()
	p.GenMS = float64(res.GenDuration.Microseconds()) / 1000
	p.RecMS = float64(res.RecDuration.Microseconds()) / 1000
	p.RecCandidates = len(res.RecOpDurations)
	p.Degraded = res.Degraded
	if p.Engine != nil {
		p.DegradedReason = p.Engine.DegradedReason
	}
	// A step can degrade without the engine degrading: the deadline landed
	// between generation and the recommendation pass.
	if res.Degraded && s.Mode != UserDriven && res.Recommendations == nil && res.RecDuration == 0 {
		p.RecommendationsSkipped = true
		if p.DegradedReason == "" {
			p.DegradedReason = "recommendations_skipped"
		}
	}
}

// Apply moves the session to the operation's target description. Any
// operation is accepted in UserDriven and RecommendationPowered modes;
// FullyAutomated sessions advance only via Auto.
func (s *Session) Apply(op query.Operation) error {
	return s.ApplyDescription(op.Target)
}

// ApplyDescription moves the session to an explicit description (the
// user-provided operation path, including the advanced SQL screen). The
// previous selection is pushed onto the Back history.
func (s *Session) ApplyDescription(d query.Description) error {
	if err := s.applyDescription(d); err != nil {
		return err
	}
	s.oplog = append(s.oplog, SessionOp{Kind: OpApply, Predicate: d.String()})
	return nil
}

// applyDescription is ApplyDescription without the op-log record; the
// recommendation path logs an index-based op instead.
func (s *Session) applyDescription(d query.Description) error {
	if err := s.Ex.Query.Validate(d); err != nil {
		return err
	}
	if !s.cur.Equal(d) {
		s.history = append(s.history, s.cur)
	}
	s.cur = d
	// Feed the session's own log-affinity scorer, if one is configured, so
	// personalization reflects the user's actual trajectory.
	if l, ok := s.Ex.Cfg.Scorer.(*LogAffinityScorer); ok {
		l.Observe(query.Operation{Target: d})
	}
	return nil
}

// Back returns the session to the previously visited selection, like the
// browser-style back button of the demo UI. It reports false when the
// history is empty.
func (s *Session) Back() bool {
	if len(s.history) == 0 {
		return false
	}
	s.cur = s.history[len(s.history)-1]
	s.history = s.history[:len(s.history)-1]
	s.oplog = append(s.oplog, SessionOp{Kind: OpBack})
	return true
}

// ApplyRecommendation applies the i-th recommendation of the latest step.
func (s *Session) ApplyRecommendation(i int) error {
	if len(s.steps) == 0 {
		return fmt.Errorf("core: no step executed yet")
	}
	last := s.steps[len(s.steps)-1]
	if i < 0 || i >= len(last.Recommendations) {
		return fmt.Errorf("core: recommendation index %d out of range (have %d)", i, len(last.Recommendations))
	}
	if err := s.applyDescription(last.Recommendations[i].Op.Target); err != nil {
		return err
	}
	s.oplog = append(s.oplog, SessionOp{Kind: OpRecommend, Index: i})
	return nil
}

// Auto runs a Fully-Automated exploration of m steps from the current
// description, applying the top-1 recommendation after each step. It stops
// early if no recommendation is available. It returns the executed steps.
//
// Auto is an XCtx compatibility shim: a context-free wrapper F that
// delegates to FCtx with context.Background(), keeping the pre-context
// API alive. Shims like this (Auto, Step, engine.Generator.TopMaps,
// Explorer.RMSet) are the only non-main, non-test call sites where the
// ctxflow analyzer permits minting a root context.
func (s *Session) Auto(m int) ([]*StepResult, error) {
	return s.AutoCtx(context.Background(), m)
}

// AutoCtx is Auto under a caller-supplied context: every step runs through
// StepCtx, so the auto-pilot honors the caller's deadline and cancellation
// (plus Config.StepTimeout per step) and emits the full span tree. On a
// mid-walk cancellation it returns the steps completed so far together
// with the step's error — an auto-pilot is a sequence of anytime steps,
// so a prefix of the walk is always a valid partial result.
func (s *Session) AutoCtx(ctx context.Context, m int) ([]*StepResult, error) {
	if s.Mode == UserDriven {
		return nil, fmt.Errorf("core: Auto requires a guided mode, session is %s", s.Mode)
	}
	var out []*StepResult
	for i := 0; i < m; i++ {
		res, err := s.StepCtx(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, res)
		if i == m-1 {
			break
		}
		if len(res.Recommendations) == 0 {
			// Nowhere to go — or the caller's cancellation cut the
			// recommendation pass, and then that is why the walk ends.
			return out, ctx.Err()
		}
		// Committed as an index op (not the target predicate), so the
		// session log replays the auto-pilot's choice structurally.
		if err := s.ApplyRecommendation(0); err != nil {
			return out, err
		}
	}
	return out, nil
}

// PathSummary aggregates a finished session for the Table 5 metrics: total
// utility, number of distinct grouping attributes shown, and mean per-step
// average pairwise diversity.
type PathSummary struct {
	Steps              int
	TotalUtility       float64
	DistinctAttributes int
	AvgDiversity       float64
	MapsPerDimension   map[int]int
}

// Summarize computes the PathSummary of the session so far.
func (s *Session) Summarize() PathSummary {
	sum := PathSummary{Steps: len(s.steps), MapsPerDimension: make(map[int]int)}
	attrs := make(map[string]bool)
	div := 0.0
	for _, st := range s.steps {
		sum.TotalUtility += st.TotalUtility()
		div += st.AvgDiversity
		for _, rm := range st.Maps {
			attrs[fmt.Sprintf("%d.%s", rm.Side, rm.Attr)] = true
			sum.MapsPerDimension[rm.Dim]++
		}
	}
	sum.DistinctAttributes = len(attrs)
	if len(s.steps) > 0 {
		sum.AvgDiversity = div / float64(len(s.steps))
	}
	return sum
}
