package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

func coreDB(t testing.TB) *dataset.DB {
	t.Helper()
	db, err := gen.Yelp(gen.Config{Seed: 3, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func coreExplorer(t testing.TB) *Explorer {
	t.Helper()
	ex, err := NewExplorer(coreDB(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestNewExplorerRequiresFrozen(t *testing.T) {
	db := coreDB(t)
	raw := dataset.NewDB("unfrozen", db.Reviewers, db.Items, db.Ratings)
	if _, err := NewExplorer(raw, DefaultConfig()); err == nil {
		t.Fatal("unfrozen database must be rejected")
	}
}

func TestNewExplorerDisablesDWForSingleDimension(t *testing.T) {
	db, err := gen.Movielens(gen.Config{Seed: 3, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Cfg.Engine.Utility.DisableDimensionWeights {
		t.Fatal("single-dimension database must disable dimension weights")
	}
}

// TestNewExplorerRejectsZeroConfig pins that DefaultConfig() is the only
// source of defaults: a config that did not start from it is refused with
// an error saying so, never completed by guesswork, and the shipped
// configuration is accepted on every generator.
func TestNewExplorerRejectsZeroConfig(t *testing.T) {
	noEngine := DefaultConfig()
	noEngine.Engine = engine.Config{}
	noDistance := DefaultConfig()
	noDistance.Distance = nil
	for name, cfg := range map[string]Config{
		"zero": {}, "zero engine": noEngine, "nil distance": noDistance,
	} {
		_, err := NewExplorer(coreDB(t), cfg)
		if err == nil || !strings.Contains(err.Error(), "start from DefaultConfig()") {
			t.Errorf("%s config: want the start-from-DefaultConfig error, got %v", name, err)
		}
	}
	for _, name := range []string{"demo", "movielens", "yelp", "hotels"} {
		db, err := gen.ByName(name, gen.Config{Seed: 1, Scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewExplorer(db, DefaultConfig()); err != nil {
			t.Errorf("DefaultConfig() rejected on %s: %v", name, err)
		}
	}
}

func TestRMSetBasics(t *testing.T) {
	ex := coreExplorer(t)
	seen := ratingmap.NewSeenSet()
	res, err := ex.RMSet(query.Description{}, seen)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) != ex.Cfg.K {
		t.Fatalf("maps = %d, want %d", len(res.Maps), ex.Cfg.K)
	}
	if len(res.Utilities) != len(res.Maps) {
		t.Fatal("utilities misaligned")
	}
	if res.GroupSize != ex.DB.Ratings.Len() {
		t.Errorf("root group size = %d, want %d", res.GroupSize, ex.DB.Ratings.Len())
	}
	// Seen must NOT be mutated by RMSet (callers commit explicitly).
	if seen.Total() != 0 {
		t.Error("RMSet must not commit maps to the seen set")
	}
	// Distinct maps.
	keys := map[ratingmap.Key]bool{}
	for _, rm := range res.Maps {
		if keys[rm.Key] {
			t.Errorf("duplicate map %v selected", rm.Key)
		}
		keys[rm.Key] = true
	}
}

func TestRMSetValidatesDescription(t *testing.T) {
	ex := coreExplorer(t)
	bad := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "nope", Value: "x"})
	if _, err := ex.RMSet(bad, ratingmap.NewSeenSet()); err == nil {
		t.Fatal("invalid description must be rejected")
	}
}

func TestOperationUtilityRanksAnomalies(t *testing.T) {
	// Plant an irregular group; the op drilling into it must outrank a
	// random neutral op. This is the signal Problem 2 depends on.
	db := coreDB(t)
	groups, err := gen.PlantIrregularGroups(db, 77, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := ratingmap.NewSeenSet()
	var anomalous query.Description
	for _, g := range groups {
		if g.Side == query.ItemSide {
			anomalous = query.MustDescription(g.Selectors[0])
		}
	}
	if anomalous.IsEmpty() {
		t.Skip("no item-side group planted")
	}
	uAnom, err := ex.OperationUtility(query.Operation{Target: anomalous}, seen)
	if err != nil {
		t.Fatal(err)
	}
	if uAnom <= 0 {
		t.Fatalf("anomalous op utility = %v, want positive", uAnom)
	}
}

func TestOperationUtilityEmptyGroup(t *testing.T) {
	ex := coreExplorer(t)
	// Conjunction chosen to be empty: two different cities can't both hold
	// on the reviewer side… instead pick a selective pair that yields 0.
	d := query.MustDescription(
		query.Selector{Side: query.ReviewerSide, Attr: "membership", Value: "elite"},
		query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "unspecified"},
		query.Selector{Side: query.ReviewerSide, Attr: "occupation", Value: "chef"},
		query.Selector{Side: query.ReviewerSide, Attr: "age_group", Value: "teen"},
	)
	u, err := ex.OperationUtility(query.Operation{Target: d}, ratingmap.NewSeenSet())
	if err != nil {
		t.Fatal(err)
	}
	if u < 0 {
		t.Errorf("utility must be non-negative, got %v", u)
	}
}

func TestSessionStepAndRecommendations(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) == 0 || len(res.Recommendations) > ex.Cfg.O {
		t.Fatalf("recommendations = %d, want 1..%d", len(res.Recommendations), ex.Cfg.O)
	}
	for i := 1; i < len(res.Recommendations); i++ {
		if res.Recommendations[i].Utility > res.Recommendations[i-1].Utility+1e-9 {
			t.Fatal("recommendations not sorted by utility")
		}
	}
	// The step must have committed its maps to the history.
	if sess.Seen().Total() != len(res.Maps) {
		t.Errorf("seen = %d, want %d", sess.Seen().Total(), len(res.Maps))
	}
	if err := sess.ApplyRecommendation(0); err != nil {
		t.Fatal(err)
	}
	if sess.Current().IsEmpty() {
		t.Error("applying a recommendation must change the description")
	}
}

func TestSessionUserDrivenHasNoRecommendations(t *testing.T) {
	ex := coreExplorer(t)
	sess, _ := NewSession(ex, UserDriven, query.Description{})
	res, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) != 0 {
		t.Fatal("User-Driven steps must not compute recommendations")
	}
	if err := sess.ApplyRecommendation(0); err == nil {
		t.Fatal("ApplyRecommendation without recommendations must fail")
	}
}

func TestSessionAuto(t *testing.T) {
	ex := coreExplorer(t)
	sess, _ := NewSession(ex, FullyAutomated, query.Description{})
	steps, err := sess.Auto(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 || len(steps) > 3 {
		t.Fatalf("auto steps = %d", len(steps))
	}
	if sess.NumSteps() != len(steps) {
		t.Error("session step log inconsistent")
	}
	// Descriptions should change along the path.
	if len(steps) >= 2 && steps[0].Desc.Equal(steps[1].Desc) {
		t.Error("auto path did not move")
	}
	// User-Driven sessions reject Auto.
	ud, _ := NewSession(ex, UserDriven, query.Description{})
	if _, err := ud.Auto(2); err == nil {
		t.Fatal("Auto must require a guided mode")
	}
}

func TestSessionSummarize(t *testing.T) {
	ex := coreExplorer(t)
	sess, _ := NewSession(ex, FullyAutomated, query.Description{})
	if _, err := sess.Auto(2); err != nil {
		t.Fatal(err)
	}
	sum := sess.Summarize()
	if sum.Steps != sess.NumSteps() {
		t.Errorf("Steps = %d, want %d", sum.Steps, sess.NumSteps())
	}
	if sum.TotalUtility <= 0 {
		t.Error("total utility must be positive")
	}
	if sum.DistinctAttributes == 0 {
		t.Error("distinct attributes must be counted")
	}
	total := 0
	for _, n := range sum.MapsPerDimension {
		total += n
	}
	if total != sum.Steps*ex.Cfg.K {
		t.Errorf("maps per dimension total = %d, want %d", total, sum.Steps*ex.Cfg.K)
	}
}

func TestCandidateOpsDeduplicate(t *testing.T) {
	ex := coreExplorer(t)
	seen := ratingmap.NewSeenSet()
	res, err := ex.RMSet(query.Description{}, seen)
	if err != nil {
		t.Fatal(err)
	}
	rb := RecommendationBuilder{Ex: ex}
	ops, err := rb.CandidateOps(query.Description{}, res.Maps)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, op := range ops {
		k := op.Target.Key()
		if targets[k] {
			t.Fatalf("duplicate candidate target %s", op.Target)
		}
		targets[k] = true
		if op.Target.Equal(query.Description{}) {
			t.Fatal("the current description must not be a candidate")
		}
	}
}

// TestCandidateOpsRespectEditDistance pins §4.3 on the live enumeration:
// from a bound description with displayed maps, every candidate differs
// from the current selection in one or two attribute-value pairs, no
// target repeats, and the two-pair kinds are present.
func TestCandidateOpsRespectEditDistance(t *testing.T) {
	ex := coreExplorer(t)
	cur := query.MustDescription(
		query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	res, err := ex.RMSet(cur, ratingmap.NewSeenSet())
	if err != nil {
		t.Fatal(err)
	}
	rb := RecommendationBuilder{Ex: ex}
	ops, err := rb.CandidateOps(cur, res.Maps)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	kinds := map[query.OpKind]bool{}
	for _, op := range ops {
		if d := cur.EditDistance(op.Target); d == 0 || d > 2 {
			t.Errorf("candidate %s at edit distance %d", op, d)
		}
		k := op.Target.Key()
		if targets[k] {
			t.Errorf("duplicate candidate target %s", op.Target)
		}
		targets[k] = true
		kinds[op.Kind] = true
	}
	for _, k := range []query.OpKind{query.Filter, query.FilterGeneralize, query.FilterChange} {
		if !kinds[k] {
			t.Errorf("no %s candidate enumerated", k)
		}
	}
}

// TestCandidateOpsLimits: MaxCandidates caps the enumeration itself, not
// only what Recommend evaluates.
func TestCandidateOpsLimits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Limits.MaxCandidates = 3
	ex, err := NewExplorer(coreDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb := RecommendationBuilder{Ex: ex}
	ops, err := rb.CandidateOps(query.Description{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("MaxCandidates=3: %d candidates", len(ops))
	}
}

func TestCandidateOpsIncludeRollUps(t *testing.T) {
	ex := coreExplorer(t)
	cur := query.MustDescription(
		query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	rb := RecommendationBuilder{Ex: ex}
	ops, err := rb.CandidateOps(cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	hasRollUp := false
	for _, op := range ops {
		if op.Kind == query.Generalize {
			hasRollUp = true
		}
	}
	if !hasRollUp {
		t.Fatal("candidates must include roll-ups — the Table 4 differentiator")
	}
}

func TestRecommendRespectsMaxCandidates(t *testing.T) {
	db := coreDB(t)
	cfg := DefaultConfig()
	cfg.Limits.MaxCandidates = 5
	ex, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb := RecommendationBuilder{Ex: ex}
	recs, durs, err := rb.Recommend(query.Description{}, nil, ratingmap.NewSeenSet(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) > 5 {
		t.Fatalf("evaluated %d candidates, cap is 5", len(durs))
	}
	if len(recs) > 3 {
		t.Fatalf("recs = %d, want ≤ 3", len(recs))
	}
}

func TestRenderMapNil(t *testing.T) {
	ex := coreExplorer(t)
	if got := ex.RenderMap(nil); got == "" {
		t.Error("nil map must render a placeholder")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		UserDriven: "User-Driven", RecommendationPowered: "Recommendation-Powered",
		FullyAutomated: "Fully-Automated",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestExplainMap(t *testing.T) {
	ex := coreExplorer(t)
	seen := ratingmap.NewSeenSet()
	res, err := ex.RMSet(query.Description{}, seen)
	if err != nil {
		t.Fatal(err)
	}
	scores, winner := ex.ExplainMap(res.Maps[0], seen)
	if winner < 0 || winner >= ratingmap.NumCriteria {
		t.Fatalf("winner out of range: %v", winner)
	}
	for c := ratingmap.Criterion(0); c < ratingmap.NumCriteria; c++ {
		if scores[c] > scores[winner] {
			t.Fatalf("criterion %v (%v) beats reported winner %v (%v)",
				c, scores[c], winner, scores[winner])
		}
	}
}

// TestStepTimeoutDegrades covers the Config.StepTimeout contract: when
// the deadline fires after the engine's first phase boundary (forced
// deterministically by a PhaseHook that stalls phase 1 until the
// deadline), the step succeeds with Degraded set, RecordsProcessed
// reporting the scanned prefix, and the recommendation pass skipped.
func TestStepTimeoutDegrades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepTimeout = 50 * time.Millisecond
	cfg.Engine.MinPhaseRecords = 1
	cfg.Engine.PhaseHook = func(ctx context.Context, phase int) {
		if phase > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				// Unreachable under a working deadline; bounds the test.
			}
		}
	}
	ex, err := NewExplorer(coreDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Step()
	if err != nil {
		t.Fatalf("deadline past the first phase must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Error("step not marked degraded")
	}
	if res.RecordsProcessed <= 0 || res.RecordsProcessed >= res.GroupSize {
		t.Errorf("RecordsProcessed = %d, want a strict prefix of %d",
			res.RecordsProcessed, res.GroupSize)
	}
	if len(res.Recommendations) != 0 {
		t.Error("recommendation pass must be skipped once the deadline passed")
	}
	if len(res.Maps) == 0 {
		t.Error("degraded step must still display maps")
	}
}

// cancellingScorer is Equation 2 that spends the step's budget — cancels
// the step's context — while scoring its after-th candidate.
type cancellingScorer struct {
	after  int
	cancel context.CancelFunc
	calls  int
}

func (c *cancellingScorer) ScoreOperation(_ query.Operation, eq2 float64) float64 {
	if c.calls++; c.calls == c.after {
		c.cancel()
	}
	return eq2
}

// TestStepDeadlineCoversRecommendationPass pins that the step budget
// reaches into the recommendation pass, where a guided step spends nearly
// all of its time: once the budget is spent while a candidate is being
// scored, no further candidate is, and the step degrades exactly as it does
// when the budget is spent before the pass — Degraded,
// RecommendationsSkipped, no partial list.
func TestStepDeadlineCoversRecommendationPass(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	scorer := &cancellingScorer{after: 3, cancel: cancel}
	cfg := DefaultConfig()
	cfg.Scorer = scorer
	ex, err := NewExplorer(coreDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := sess.rb.CandidateOps(query.Description{}, nil)
	if err != nil || len(ops) < 20 {
		t.Fatalf("want a root selection with many candidates, have %d (%v)", len(ops), err)
	}
	res, err := sess.StepCtx(ctx)
	cancel()
	if err != nil {
		t.Fatalf("a budget spent mid-pass must degrade, not fail: %v", err)
	}
	if got := scorer.calls; got != scorer.after {
		t.Errorf("%d candidates scored, want none after the budget was spent at #%d", got, scorer.after)
	}
	if !res.Degraded || !res.Profile.RecommendationsSkipped || res.Profile.DegradedReason != "recommendations_skipped" {
		t.Errorf("degraded=%v profile=%+v, want a degraded step with the recommendations skipped", res.Degraded, res.Profile)
	}
	if res.Recommendations != nil || res.RecOpDurations != nil || res.RecDuration != 0 {
		t.Errorf("a partial recommendation pass leaked into the step: %d recs, %d durations",
			len(res.Recommendations), len(res.RecOpDurations))
	}
	if len(res.Maps) == 0 || res.RecordsProcessed != res.GroupSize {
		t.Error("the maps were complete before the budget ran out and must stay so")
	}
}

// TestStepNoTimeoutNotDegraded pins that unlimited-budget steps never
// report degradation.
func TestStepNoTimeoutNotDegraded(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, UserDriven, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("step without a deadline reported degraded")
	}
	if res.RecordsProcessed != res.GroupSize {
		t.Errorf("RecordsProcessed = %d, want full scan of %d", res.RecordsProcessed, res.GroupSize)
	}
}
