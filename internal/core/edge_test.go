package core

import (
	"context"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// degenerateDB builds a minimal database: 1 reviewer, 1 item, 1 record, one
// single-valued attribute per side — the smallest input the explorer must
// survive.
func degenerateDB(t *testing.T) *dataset.DB {
	t.Helper()
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "g"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "c"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	reviewers.AppendRow("u1", map[string]string{"g": "only"}, nil)
	items.AppendRow("i1", map[string]string{"c": "one"}, nil)
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	rt.Append(0, 0, []dataset.Score{3})
	db := dataset.NewDB("degenerate", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExplorerOnDegenerateDB(t *testing.T) {
	db := degenerateDB(t)
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.rmSet(context.Background(), query.Description{}, ratingmap.NewSeenSet())
	if err != nil {
		t.Fatal(err)
	}
	// Single-valued attributes cannot be grouped (1-bar partitions are
	// excluded), so no maps is the correct answer — not a crash.
	if len(res.Maps) != 0 {
		t.Logf("degenerate DB produced %d maps (acceptable)", len(res.Maps))
	}
	if res.GroupSize != 1 {
		t.Errorf("group size = %d, want 1", res.GroupSize)
	}
}

func TestSessionOnDegenerateDB(t *testing.T) {
	db := degenerateDB(t)
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatalf("step on degenerate DB: %v", err)
	}
	// Auto must terminate gracefully even with nothing to recommend.
	fa, _ := NewSession(ex, FullyAutomated, query.Description{})
	steps, err := fa.Auto(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("at least the first step must run")
	}
}

// zeroRecordDB has entities but no rating records at all.
func zeroRecordDB(t *testing.T) *dataset.DB {
	t.Helper()
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "g"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "c"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	reviewers.AppendRow("u1", map[string]string{"g": "a"}, nil)
	reviewers.AppendRow("u2", map[string]string{"g": "b"}, nil)
	items.AppendRow("i1", map[string]string{"c": "x"}, nil)
	items.AppendRow("i2", map[string]string{"c": "y"}, nil)
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	db := dataset.NewDB("empty-ratings", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExplorerOnZeroRecords(t *testing.T) {
	db := zeroRecordDB(t)
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.rmSet(context.Background(), query.Description{}, ratingmap.NewSeenSet())
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupSize != 0 {
		t.Errorf("group size = %d, want 0", res.GroupSize)
	}
	// Recommendations over an empty database must not error.
	rb := RecommendationBuilder{Ex: ex}
	if _, _, err := rb.Recommend(query.Description{}, res.Maps, ratingmap.NewSeenSet(), 3); err != nil {
		t.Fatalf("recommend on empty: %v", err)
	}
}

func TestApplyInvalidDescription(t *testing.T) {
	db := degenerateDB(t)
	ex, _ := NewExplorer(db, DefaultConfig())
	sess, _ := NewSession(ex, UserDriven, query.Description{})
	bad := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "missing", Value: "x"})
	if err := sess.ApplyDescription(bad); err == nil {
		t.Fatal("invalid description must be rejected")
	}
	if !sess.Current().IsEmpty() {
		t.Fatal("failed apply must not move the session")
	}
	if sess.Back() {
		t.Fatal("failed apply must not pollute history")
	}
}

func TestNewSessionValidatesStart(t *testing.T) {
	db := degenerateDB(t)
	ex, _ := NewExplorer(db, DefaultConfig())
	bad := query.MustDescription(query.Selector{Side: query.ItemSide, Attr: "missing", Value: "x"})
	if _, err := NewSession(ex, UserDriven, bad); err == nil {
		t.Fatal("invalid start description must be rejected")
	}
}
