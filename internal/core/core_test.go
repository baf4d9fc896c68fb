package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"subdex/internal/dataset"
	"subdex/internal/dataset/datasettest"
	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/query/querytest"
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
	res, err := ex.rmSet(context.Background(), query.Description{}, seen)
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
	// Seen must NOT be mutated by rmSet (Session.StepCtx commits).
	if seen.State().Total != 0 {
		t.Error("rmSet must not commit maps to the seen set")
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
	if _, err := ex.rmSet(context.Background(), bad, ratingmap.NewSeenSet()); err == nil {
		t.Fatal("invalid description must be rejected")
	}
}

// OperationUtility evaluates Equation 2 for a candidate operation: the sum
// of DW utilities of the k rating maps its target group would display. It
// materializes the target from the entity tables and samples it — the
// reference the Recommendation Builder's derived groups (recPass) are
// tested against.
func (ex *Explorer) OperationUtility(op query.Operation, seen *ratingmap.SeenSet) (float64, error) {
	group, err := ex.Query.Materialize(op.Target)
	if err != nil {
		return 0, err
	}
	records := query.Sample(nil, group.Records, ex.Cfg.RecSampleSize)
	u, _, err := (&recPass{ex: ex}).groupUtility(op.Target, records, ex.Gen.Candidates(ex.Query, op.Target), seen)
	return u, err
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
	if sess.Seen().State().Total != len(res.Maps) {
		t.Errorf("seen = %d, want %d", sess.Seen().State().Total, len(res.Maps))
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
	res, err := ex.rmSet(context.Background(), query.Description{}, seen)
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
	res, err := ex.rmSet(context.Background(), cur, ratingmap.NewSeenSet())
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
		if d := querytest.EditDistance(cur, op.Target); d == 0 || d > 2 {
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

// TestStepDeadlineCoversRecommendationPass pins that the step budget
// reaches into the recommendation pass, where a guided step spends nearly
// all of its time: once the budget is spent inside a candidate's engine
// call, no further candidate reaches the engine, and the step degrades
// exactly as it does when the budget is spent before the pass — Degraded,
// RecommendationsSkipped, no partial list. Engine.PhaseHook spends it: the
// pass hands ex.Cfg.Engine to every TopMapsIfCtx call, and a candidate's
// sampled group is one stride, so after the step's own scan each call
// fires the hook once and the hook's (strides+3)-th call is inside the
// pass's third engine call.
func TestStepDeadlineCoversRecommendationPass(t *testing.T) {
	session := func(hook func(context.Context, int)) *Session {
		cfg := DefaultConfig()
		cfg.Engine.PhaseHook = hook
		ex, err := NewExplorer(coreDB(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(ex, RecommendationPowered, query.Description{})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	// An identical step that nothing cancels says how many strides the
	// step's own scan takes.
	plain, err := session(nil).Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.RecOpDurations) < 20 {
		t.Fatalf("want a root selection with many candidates, have %d", len(plain.RecOpDurations))
	}
	cancelAt := len(plain.Profile.Engine.Phases) + 3

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	res, err := session(func(context.Context, int) {
		if calls++; calls == cancelAt {
			cancel()
		}
	}).StepCtx(ctx)
	if err != nil {
		t.Fatalf("a budget spent mid-pass must degrade, not fail: %v", err)
	}
	if calls != cancelAt {
		t.Errorf("the phase hook ran %d times, want none after the budget was spent at call %d", calls, cancelAt)
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

func TestSessionBack(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, UserDriven, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Back() {
		t.Fatal("Back on fresh session must report false")
	}
	d1 := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	d2 := query.MustDescription(query.Selector{Side: query.ItemSide, Attr: "parking", Value: "yes"})
	if err := sess.ApplyDescription(d1); err != nil {
		t.Fatal(err)
	}
	if err := sess.ApplyDescription(d2); err != nil {
		t.Fatal(err)
	}
	if !sess.Back() || !sess.Current().Equal(d1) {
		t.Fatalf("Back landed on %s, want %s", sess.Current(), d1)
	}
	if !sess.Back() || !sess.Current().IsEmpty() {
		t.Fatalf("second Back landed on %s, want TRUE", sess.Current())
	}
	if sess.Back() {
		t.Fatal("history exhausted; Back must report false")
	}
	// Re-applying the current description must not pollute the history.
	if err := sess.ApplyDescription(query.Description{}); err != nil {
		t.Fatal(err)
	}
	if sess.Back() {
		t.Fatal("no-op apply must not create history")
	}
}

// benchYelp is the Yelp-shaped database (seed 1, scale 0.1) the RM-Set
// benchmarks share, generated once per test binary.
var benchYelp = sync.OnceValues(func() (*dataset.DB, error) {
	return gen.Yelp(gen.Config{Seed: 1, Scale: 0.1})
})

// BenchmarkRMSetSelection is one RM-Set selection (Problem 1) at the root
// under the default configuration: generation, pruning and GMM.
func BenchmarkRMSetSelection(b *testing.B) {
	db, err := benchYelp()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	seen := ratingmap.NewSeenSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.rmSet(context.Background(), query.Description{}, seen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendationBuilding is one recommendation pass at the root
// over 40 candidate operations, each scored on a 500-record sample.
func BenchmarkRecommendationBuilding(b *testing.B) {
	db, err := benchYelp()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Limits.MaxCandidates = 40
	cfg.RecSampleSize = 500
	ex, err := NewExplorer(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	seen := ratingmap.NewSeenSet()
	res, err := ex.rmSet(context.Background(), query.Description{}, seen)
	if err != nil {
		b.Fatal(err)
	}
	rb := RecommendationBuilder{Ex: ex}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rb.Recommend(query.Description{}, res.Maps, seen, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCandidateOpsNeverBindMissing: on Hotels and Yelp with a fifth of
// their atomic cells blank, the displayed maps group records whose cell
// is blank, yet no map shows the missing value as a bar (a rating map
// discards it) and no candidate operation binds it.
func TestCandidateOpsNeverBindMissing(t *testing.T) {
	for _, ds := range []struct {
		name  string
		scale float64
	}{{"hotels", 0.5}, {"yelp", 0.05}} {
		gdb, err := gen.ByName(ds.name, gen.Config{Scale: ds.scale})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExplorer(datasettest.WithMissingCells(t, gdb, 0.2, 1), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rb := RecommendationBuilder{Ex: ex}
		cur := query.Description{}
		blank := 0 // displayed maps over records with a blank cell
		for depth := 0; depth < 2; depth++ {
			res, err := ex.rmSet(context.Background(), cur, ratingmap.NewSeenSet())
			if err != nil {
				t.Fatal(err)
			}
			group, err := ex.Query.Materialize(cur)
			if err != nil {
				t.Fatal(err)
			}
			for _, rm := range res.Maps {
				p, err := ex.Query.Partition(group.Records, rm.Side, rm.Attr, 0)
				if err != nil {
					t.Fatal(err)
				}
				if b, err := p.Bucket(dataset.MissingLabel); err == nil && len(b) > 0 {
					blank++
				}
				for _, sg := range rm.Subgroups {
					if ex.DictFor(rm).Value(sg.Value) == dataset.MissingLabel {
						t.Errorf("%s at %s: %s shows the missing value as a bar", ds.name, cur, rm.Key)
					}
				}
			}
			ops, err := rb.CandidateOps(cur, res.Maps)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				for _, s := range op.Target.Selectors() {
					if s.Value == dataset.MissingLabel {
						t.Errorf("%s at %s: candidate %s binds the missing value", ds.name, cur, op)
					}
				}
			}
			cur = ops[0].Target // one drill down, to reach the two-pair kinds
		}
		if blank == 0 {
			t.Fatalf("%s: no displayed map groups a blank cell; the test would hold nothing", ds.name)
		}
	}
}
