package core

import (
	"testing"

	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// TestEquationTwoScorerMatchesOperationUtility pins the scorer contract:
// the eq2 the builder hands a scorer is OperationUtility of that operation,
// and EquationTwoScorer ranks by it unchanged — the list a nil Scorer gives.
func TestEquationTwoScorerMatchesOperationUtility(t *testing.T) {
	seen := ratingmap.NewSeenSet()
	cfg := DefaultConfig()
	cfg.Scorer = EquationTwoScorer{}
	scored, err := NewExplorer(coreDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := coreExplorer(t)
	got, _, err := (&RecommendationBuilder{Ex: scored}).Recommend(query.Description{}, nil, seen, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := (&RecommendationBuilder{Ex: ex}).Recommend(query.Description{}, nil, seen, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("%d recommendations with the scorer, %d without", len(got), len(want))
	}
	for i, r := range got {
		direct, err := ex.OperationUtility(r.Op, seen)
		if err != nil {
			t.Fatal(err)
		}
		if r.Utility != direct || r.Utility != want[i].Utility || !r.Op.Target.Equal(want[i].Op.Target) {
			t.Fatalf("#%d %s: scorer %v, nil scorer %v (%s), direct %v", i, r.Op, r.Utility, want[i].Utility, want[i].Op, direct)
		}
	}
}

func TestLogAffinityScorerBoosts(t *testing.T) {
	sel := query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"}
	op := query.Operation{Target: query.MustDescription(sel), Added: &sel}

	plain := &LogAffinityScorer{Alpha: 0.5}
	if before := plain.ScoreOperation(op, 2); before != 2 {
		t.Fatalf("empty log must not boost: %v", before)
	}
	// Record interest in the gender attribute, then rescore.
	plain.Observe(op)
	if after := plain.ScoreOperation(op, 2); after != 3 {
		t.Fatalf("affinity boost = %v, want 2 × (1 + 0.5 × 1)", after)
	}
	// An operation on an unrelated attribute gets no boost.
	other := query.Selector{Side: query.ItemSide, Attr: "parking", Value: "yes"}
	opOther := query.Operation{Target: query.MustDescription(other), Added: &other}
	if scored := plain.ScoreOperation(opOther, 2); scored != 2 {
		t.Fatalf("unrelated op must not be boosted: %v", scored)
	}
}

func TestLogAffinityScorerZeroAlpha(t *testing.T) {
	sel := query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"}
	op := query.Operation{Target: query.MustDescription(sel), Added: &sel}
	l := &LogAffinityScorer{Alpha: 0}
	l.Observe(op)
	if a := l.ScoreOperation(op, 2); a != 2 {
		t.Fatal("alpha 0 must degrade to Equation 2")
	}
}

func TestCustomScorerWiredThroughRecommend(t *testing.T) {
	db := coreDB(t)
	cfg := DefaultConfig()
	cfg.Limits.MaxCandidates = 10
	cfg.Scorer = constantScorer{}
	ex, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb := RecommendationBuilder{Ex: ex}
	recs, _, err := rb.Recommend(query.Description{}, nil, ratingmap.NewSeenSet(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Utility != 42 {
			t.Fatalf("custom scorer ignored: %v", r.Utility)
		}
	}
}

type constantScorer struct{}

func (constantScorer) ScoreOperation(query.Operation, float64) float64 { return 42 }

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

func TestSessionFeedsLogAffinityScorer(t *testing.T) {
	db := coreDB(t)
	cfg := DefaultConfig()
	scorer := &LogAffinityScorer{Alpha: 1}
	cfg.Scorer = scorer
	ex, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ex, UserDriven, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	d := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	if err := sess.ApplyDescription(d); err != nil {
		t.Fatal(err)
	}
	if scorer.total == 0 {
		t.Fatal("session did not feed the log scorer")
	}
}
