package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"subdex/internal/dataset"
	"subdex/internal/obs"
)

// Mix weighs the operations a virtual user picks from after reading a
// step display. Weights are relative; operations that are unavailable in
// the current state (no recommendations, empty back history, not enough
// step budget for an auto-pilot run) drop out of the draw and the rest
// renormalize. All weights zero (or nothing available) ends the walk.
type Mix struct {
	// Recommend follows a uniformly chosen displayed recommendation.
	Recommend float64
	// Drill filters into a uniformly chosen bar of a displayed map (the
	// user-provided operation path, exercising the predicate parser).
	Drill float64
	// Back returns to the previously visited selection.
	Back float64
	// Auto hands control to the auto-pilot for autoLen steps.
	Auto float64
}

// DefaultMix mirrors how the paper's interactive demo is driven: mostly
// recommendation-following with occasional manual drills, backs, and
// auto-pilot bursts.
func DefaultMix() Mix {
	return Mix{Recommend: 0.55, Drill: 0.25, Back: 0.15, Auto: 0.05}
}

// ParseMix parses "recommend=0.5,drill=0.3,back=0.2,auto=0" (any subset;
// omitted ops weigh zero). The empty string yields DefaultMix.
func ParseMix(s string) (Mix, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultMix(), nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Mix{}, fmt.Errorf("workload: bad mix component %q (want op=weight)", part)
		}
		var w float64
		if _, err := fmt.Sscanf(kv[1], "%g", &w); err != nil || w < 0 {
			return Mix{}, fmt.Errorf("workload: bad mix weight %q", kv[1])
		}
		switch strings.ToLower(kv[0]) {
		case "recommend":
			m.Recommend = w
		case "drill":
			m.Drill = w
		case "back":
			m.Back = w
		case "auto":
			m.Auto = w
		default:
			return Mix{}, fmt.Errorf("workload: unknown mix op %q", kv[0])
		}
	}
	if m.Recommend+m.Drill+m.Back+m.Auto <= 0 {
		return Mix{}, errors.New("workload: mix weighs zero everywhere")
	}
	return m, nil
}

// ErrorCounts tallies the recoverable failure classes a closed-loop user
// can observe, matching the server's status-code taxonomy.
type ErrorCounts struct {
	// Busy counts 409 session-busy rejections.
	Busy int
	// Admission counts 429 admission-cap rejections.
	Admission int
	// Timeout counts pre-phase deadline failures (504, or the context
	// deadline in-process).
	Timeout int
	// Other counts everything else (terminal for the user).
	Other int
}

// Total sums every class.
func (e ErrorCounts) Total() int { return e.Busy + e.Admission + e.Timeout + e.Other }

func (e *ErrorCounts) add(o ErrorCounts) {
	e.Busy += o.Busy
	e.Admission += o.Admission
	e.Timeout += o.Timeout
	e.Other += o.Other
}

// errClass buckets a client error into the ErrorCounts taxonomy.
type errClass int

const (
	errBusy errClass = iota
	errAdmission
	errTimeout
	errOther
)

// classify buckets a client error. Context-cancellation classification is
// the caller's job (a soak deadline is a clean stop, not an error).
func classify(err error) errClass {
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case 409:
			return errBusy
		case 429:
			return errAdmission
		case 504:
			return errTimeout
		}
		return errOther
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return errTimeout
	}
	return errOther
}

// opKind enumerates the user's operation repertoire.
type opKind int

const (
	opRecommend opKind = iota
	opDrill
	opBack
	opAuto
)

// autoLen is the length of an auto-pilot burst, cut to the user's remaining
// step budget.
const autoLen = 3

// user is one closed-loop virtual explorer. Its two RNG streams are
// deliberately separate: ops drives every path decision, think only the
// pacing — so changing the think-time configuration can never perturb
// which path a seed produces.
type user struct {
	id      int
	steps   int
	mix     Mix
	guided  bool
	think   time.Duration
	record  bool
	ops     *rand.Rand
	thinkRN *rand.Rand
	// base is the user's seed base; trace IDs derive from it (see opCtx).
	base int64
	// traceSeq numbers the user's step-producing calls for ID derivation.
	traceSeq uint64
	// exemplarK keeps the K slowest calls as exemplars (0 disables).
	exemplarK int
}

// opCtx derives the next step-producing call's deterministic trace ID
// from (seed base, user, call sequence) and installs it in the context.
// Derivation consumes no RNG draws, so tracing can never perturb which
// path a seed produces.
func (u *user) opCtx(ctx context.Context) (context.Context, string) {
	u.traceSeq++
	tid := obs.DeriveTraceID(uint64(u.base), uint64(u.id), u.traceSeq)
	return obs.WithTraceID(ctx, tid), string(tid)
}

// exemplar offers one completed step-producing call, profiled by the
// display sv, to the user's exemplarK slowest.
func (u *user) exemplar(res *UserResult, op, tid string, dur time.Duration, degraded bool, sv *StepView) {
	if u.exemplarK <= 0 {
		return
	}
	ex := Exemplar{User: u.id, Step: res.Steps, Op: op, DurationMS: float64(dur.Microseconds()) / 1000,
		TraceID: tid, Degraded: degraded, Profile: sv.Profile}
	res.Exemplars = insertExemplar(res.Exemplars, ex, u.exemplarK)
}

// UserResult is what one virtual user's walk produced.
type UserResult struct {
	// ID is the user's index within the population.
	ID int
	// Steps counts executed step displays, including auto-pilot steps.
	Steps int
	// Degraded counts steps returned as anytime (deadline-cut) results.
	Degraded int
	// Errors tallies recoverable failures observed by this user.
	Errors ErrorCounts
	// Failure is the terminal error that ended the walk early ("" for a
	// clean finish or a soak-deadline stop).
	Failure string
	// Records is the golden-trace record sequence (when recording).
	Records []Record
	// Summary is the session's final path summary (nil if the session
	// never became usable).
	Summary *SummaryView
	// Exemplars are the user's slowest step calls (when configured),
	// sorted by descending duration.
	Exemplars []Exemplar
}

// run executes the closed loop until the step budget is exhausted, the
// context ends, or a terminal error occurs.
func (u *user) run(ctx context.Context, c Client) *UserResult {
	res := &UserResult{ID: u.id}
	hist := 0 // Back-history depth, mirrored from the ops we issue.
loop:
	for attempts := 0; res.Steps < u.steps && attempts < 2*u.steps+8; attempts++ {
		if ctx.Err() != nil {
			break
		}
		stepCtx, tid := u.opCtx(ctx)
		stepStart := time.Now()
		sv, err := c.Step(stepCtx)
		if err != nil {
			if ctx.Err() != nil {
				break // soak deadline: clean stop
			}
			if u.fail(res, err) {
				break
			}
			u.pause(ctx)
			continue
		}
		u.note(res, sv, "")
		u.exemplar(res, "step", tid, time.Since(stepStart), sv.Degraded, sv)
		if res.Steps >= u.steps {
			break
		}
		kind, ok := u.choose(sv, hist, u.steps-res.Steps)
		if !ok {
			break // nothing playable: dead-end state
		}
		switch kind {
		case opRecommend:
			i := u.ops.Intn(len(sv.Recommendations))
			u.label(res, fmt.Sprintf("recommend:%d", i))
			if err := c.ApplyRecommendation(ctx, i); err != nil && u.fail(res, err) {
				break loop
			}
			hist++
		case opDrill:
			pairs := drillPairs(sv)
			p := pairs[u.ops.Intn(len(pairs))]
			pred := andPredicate(sv.Selection, p)
			u.label(res, "drill:"+p)
			if err := c.Apply(ctx, pred); err != nil && u.fail(res, err) {
				break loop
			}
			hist++
		case opBack:
			u.label(res, "back")
			moved, err := c.Back(ctx)
			if err != nil && u.fail(res, err) {
				break loop
			}
			if moved {
				hist--
			}
		case opAuto:
			m := min(autoLen, u.steps-res.Steps)
			u.label(res, fmt.Sprintf("auto:%d", m))
			autoCtx, autoTID := u.opCtx(ctx)
			autoStart := time.Now()
			views, err := autoBurst(autoCtx, c, m)
			anyDegraded := false
			for i, av := range views {
				op := ""
				if i < len(views)-1 {
					op = "auto:recommend:0"
				}
				u.note(res, av, op)
				anyDegraded = anyDegraded || av.Degraded
			}
			if len(views) > 0 {
				// One exemplar per burst: the burst's wall time under one
				// trace ID, profiled by its last step.
				u.exemplar(res, "auto", autoTID, time.Since(autoStart),
					anyDegraded, views[len(views)-1])
			}
			if len(views) > 1 {
				hist += len(views) - 1
			}
			if err != nil {
				if ctx.Err() != nil {
					break loop // soak deadline mid-walk: clean stop
				}
				if u.fail(res, err) {
					break loop
				}
			}
		}
		u.pause(ctx)
	}
	return u.finish(ctx, c, res)
}

// autoBurst is the auto-pilot, §3.3's Fully-Automated loop as
// core.Session.AutoCtx runs it, on any Client: step, stop after m steps
// or when no recommendation is offered, otherwise follow the top-1
// recommendation. Every call runs under ctx, so one burst carries one
// trace ID. On a failure it returns the completed prefix with the error.
func autoBurst(ctx context.Context, c Client, m int) ([]*StepView, error) {
	var out []*StepView
	for i := 0; i < m; i++ {
		sv, err := c.Step(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, sv)
		if i == m-1 || len(sv.Recommendations) == 0 {
			break
		}
		if err := c.ApplyRecommendation(ctx, 0); err != nil {
			return out, err
		}
	}
	return out, nil
}

// finish attaches the session summary (best effort under a live context).
func (u *user) finish(ctx context.Context, c Client, res *UserResult) *UserResult {
	if sum, err := c.Summary(ctx); err == nil {
		res.Summary = sum
	}
	return res
}

// note records one executed step display.
func (u *user) note(res *UserResult, sv *StepView, op string) {
	res.Steps++
	if sv.Degraded {
		res.Degraded++
	}
	if u.record {
		res.Records = append(res.Records, NewRecord(res.Steps, sv, op))
	}
}

// label annotates the latest record with the operation chosen after it.
func (u *user) label(res *UserResult, op string) {
	if u.record && len(res.Records) > 0 {
		res.Records[len(res.Records)-1].Event.ChosenOp = op
	}
}

// fail classifies an operation error; it reports true when the error is
// terminal for this user.
func (u *user) fail(res *UserResult, err error) bool {
	switch classify(err) {
	case errBusy:
		res.Errors.Busy++
	case errAdmission:
		res.Errors.Admission++
	case errTimeout:
		res.Errors.Timeout++
	default:
		res.Errors.Other++
		res.Failure = err.Error()
		return true
	}
	return false
}

// choose draws the next operation from the mix, restricted to what the
// current state supports. The draw consumes exactly one Float64 from the
// ops stream (plus the per-op index draws in run), keeping paths
// reproducible across modes.
func (u *user) choose(sv *StepView, hist, remaining int) (opKind, bool) {
	type cand struct {
		k opKind
		w float64
	}
	var cands []cand
	if u.guided && u.mix.Recommend > 0 && len(sv.Recommendations) > 0 {
		cands = append(cands, cand{opRecommend, u.mix.Recommend})
	}
	if u.mix.Drill > 0 && len(drillPairs(sv)) > 0 {
		cands = append(cands, cand{opDrill, u.mix.Drill})
	}
	if u.mix.Back > 0 && hist > 0 {
		cands = append(cands, cand{opBack, u.mix.Back})
	}
	if u.guided && u.mix.Auto > 0 && len(sv.Recommendations) > 0 && remaining >= 2 {
		cands = append(cands, cand{opAuto, u.mix.Auto})
	}
	total := 0.0
	for _, c := range cands {
		total += c.w
	}
	if total <= 0 {
		return 0, false
	}
	r := u.ops.Float64() * total
	for _, c := range cands {
		if r < c.w {
			return c.k, true
		}
		r -= c.w
	}
	return cands[len(cands)-1].k, true
}

// pause sleeps one think-time draw (exponential around the configured
// mean, capped at 4×), honoring context cancellation. With no think time
// configured it neither sleeps nor draws.
func (u *user) pause(ctx context.Context) {
	if u.think <= 0 {
		return
	}
	d := time.Duration(u.thinkRN.ExpFloat64() * float64(u.think))
	if limit := 4 * u.think; d > limit {
		d = limit
	}
	sleepCtx(ctx, d)
}

// sleepCtx sleeps d or until the context ends, reporting whether the full
// duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// drillPairs lists the drillable (attribute, value) pairs of a display:
// every bar of every map whose label is a real value. Displayed maps
// always group by attributes unbound in the current selection (that is
// how candidates are enumerated), so each pair yields a valid filter.
func drillPairs(sv *StepView) []string {
	var out []string
	for _, m := range sv.Maps {
		for _, bar := range m.Bars {
			if bar == dataset.MissingLabel {
				continue
			}
			out = append(out, selectorString(m.GroupBy, bar))
		}
	}
	return out
}

// selectorString renders "side.attr='value'" with the same quote
// selection as query.Selector.String, so the predicate re-parses to the
// intended selector.
func selectorString(groupBy, value string) string {
	q := "'"
	if strings.ContainsRune(value, '\'') && !strings.ContainsRune(value, '"') {
		q = `"`
	}
	return groupBy + "=" + q + value + q
}

// andPredicate conjoins a drill selector onto the current selection.
func andPredicate(selection, selector string) string {
	if selection == "" || selection == "TRUE" {
		return selector
	}
	return selection + " AND " + selector
}
