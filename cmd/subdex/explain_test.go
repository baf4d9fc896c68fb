package main

import (
	"strings"
	"testing"

	"subdex"
	"subdex/internal/gen"
)

// TestPrintProfile drives one real step and checks the EXPLAIN rendering
// carries the load-bearing lines (timings, cache outcome, candidates).
func TestPrintProfile(t *testing.T) {
	db, err := gen.Demo(gen.Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := subdex.NewExplorer(db, subdex.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := subdex.NewSession(ex, subdex.RecommendationPowered, subdex.Everything())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	steps := sess.Steps()
	p := steps[len(steps)-1].Profile
	if p == nil {
		t.Fatal("step produced no profile")
	}
	var b strings.Builder
	printProfile(&b, p)
	out := b.String()
	for _, want := range []string{"step profile", "generation:", "cache:", "candidates:", "considered"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DEGRADED") {
		t.Errorf("undegraded step rendered as degraded:\n%s", out)
	}

	var nb strings.Builder
	printProfile(&nb, nil)
	if !strings.Contains(nb.String(), "no profile") {
		t.Errorf("nil profile rendering: %q", nb.String())
	}

	var db2 strings.Builder
	printProfile(&db2, &subdex.StepProfile{Degraded: true, DegradedReason: "deadline_mid_estimate"})
	if !strings.Contains(db2.String(), "deadline_mid_estimate") {
		t.Errorf("degraded reason not rendered: %q", db2.String())
	}
}

// TestWhyPrintsRankingScores drives `why 1` after a session's first step:
// nothing was seen before it, so the scores the map was ranked by — the
// ones `why` prints — have a global peculiarity of 0, however much the
// step's own maps differ from each other.
func TestWhyPrintsRankingScores(t *testing.T) {
	db, err := gen.Demo(gen.Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := subdex.NewExplorer(db, subdex.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := subdex.NewSession(ex, subdex.RecommendationPowered, subdex.Everything())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	printWhy(&b, sess.Steps(), "1")
	if !strings.HasPrefix(b.String(), "usage:") {
		t.Errorf("why before any step: %q", b.String())
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	printWhy(&b, sess.Steps(), "1")
	out := b.String()
	if !strings.Contains(out, "map 1 (") || !strings.Contains(out, "->") {
		t.Fatalf("why 1 names no winner:\n%s", out)
	}
	global := ""
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); strings.Contains(line, "global-peculiarity") {
			global = f[len(f)-1]
		}
	}
	if global != "0.000" {
		t.Errorf("why 1 after the first step prints global peculiarity %q, want 0.000:\n%s", global, out)
	}
}
