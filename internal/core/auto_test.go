package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"subdex/internal/query"
)

// TestAutoShimWalks covers the context-free Auto shim: a Fully-Automated
// session advances by following the top-1 recommendation each step.
func TestAutoShimWalks(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, FullyAutomated, mustParse(t, ex, ""))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sess.Auto(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("Auto(3) executed %d steps, want 3", len(steps))
	}
	if steps[1].Desc.Equal(steps[0].Desc) {
		t.Error("auto-pilot did not move: step 2 shows the same selection as step 1")
	}
}

// TestAutoCtxRejectsUserDriven pins the mode check on the ctx-first path.
func TestAutoCtxRejectsUserDriven(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, UserDriven, mustParse(t, ex, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AutoCtx(context.Background(), 2); err == nil {
		t.Fatal("AutoCtx must reject User-Driven sessions")
	}
}

// TestAutoCtxCancelledUpFront: a dead context yields no steps and the
// context's error — the engine refuses to serve anything pre-first-phase.
func TestAutoCtxCancelledUpFront(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, FullyAutomated, mustParse(t, ex, ""))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	steps, err := sess.AutoCtx(ctx, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(steps) != 0 {
		t.Fatalf("cancelled-up-front AutoCtx returned %d steps, want 0", len(steps))
	}
}

// TestAutoCtxStopsMidWalk cancels the auto-pilot's context from inside the
// engine (via the PhaseHook fault-injection seam) after the first step's
// display has been generated, while its first candidate operation is
// being scored. The first step keeps its complete display but drops the
// recommendation pass the cancellation cut (a degraded step), so AutoCtx
// returns exactly the one-step prefix plus the cancellation error.
func TestAutoCtxStopsMidWalk(t *testing.T) {
	ex := coreExplorer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var topMapsCalls atomic.Int64
	ex.Cfg.Engine.PhaseHook = func(_ context.Context, phase int) {
		if phase != 0 {
			return
		}
		// Call 1 is step 1's display; call 2 is the first recommendation
		// evaluation. Cancelling there leaves step 1's display intact and
		// ends the walk before step 2 can serve anything.
		if topMapsCalls.Add(1) == 2 {
			cancel()
		}
	}
	sess, err := NewSession(ex, FullyAutomated, mustParse(t, ex, ""))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sess.AutoCtx(ctx, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(steps) != 1 {
		t.Fatalf("mid-walk cancellation returned %d steps, want the 1-step prefix", len(steps))
	}
	if first := steps[0]; !first.Degraded || !first.Profile.RecommendationsSkipped || first.Recommendations != nil {
		t.Errorf("the first step must be degraded with its cut recommendation pass dropped: degraded=%v recs=%d",
			first.Degraded, len(first.Recommendations))
	}
	if first := steps[0]; len(first.Maps) == 0 || first.RecordsProcessed != first.GroupSize {
		t.Error("the first step's display was complete before the cancellation and must stay so")
	}
}

func mustParse(t testing.TB, ex *Explorer, predicate string) query.Description {
	t.Helper()
	desc, err := ex.ParseDescription(predicate)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}
