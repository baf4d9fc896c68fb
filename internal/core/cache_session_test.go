package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// assertStepsEqual checks the fields a user can observe: the displayed
// maps (by full histogram digest), their utilities, the diversity
// numbers, and the recommendation list.
func assertStepsEqual(t *testing.T, idx int, a, b *StepResult) {
	t.Helper()
	if ratingmap.DigestMaps(a.Maps) != ratingmap.DigestMaps(b.Maps) {
		t.Fatalf("step %d: displayed maps differ", idx)
	}
	if len(a.Utilities) != len(b.Utilities) {
		t.Fatalf("step %d: utility count %d vs %d", idx, len(a.Utilities), len(b.Utilities))
	}
	for i := range a.Utilities {
		if math.Abs(a.Utilities[i]-b.Utilities[i]) > 1e-12 {
			t.Fatalf("step %d: utility[%d] %g vs %g", idx, i, a.Utilities[i], b.Utilities[i])
		}
	}
	if a.SetDiversity != b.SetDiversity || a.AvgDiversity != b.AvgDiversity {
		t.Fatalf("step %d: diversity (%g,%g) vs (%g,%g)", idx,
			a.SetDiversity, a.AvgDiversity, b.SetDiversity, b.AvgDiversity)
	}
	if a.GroupSize != b.GroupSize {
		t.Fatalf("step %d: group size %d vs %d", idx, a.GroupSize, b.GroupSize)
	}
	if len(a.Recommendations) != len(b.Recommendations) {
		t.Fatalf("step %d: rec count %d vs %d", idx, len(a.Recommendations), len(b.Recommendations))
	}
	for i := range a.Recommendations {
		ra, rb := a.Recommendations[i], b.Recommendations[i]
		if !ra.Op.Target.Equal(rb.Op.Target) {
			t.Fatalf("step %d: rec[%d] target %s vs %s", idx, i, ra.Op.Target, rb.Op.Target)
		}
		if math.Abs(ra.Utility-rb.Utility) > 1e-12 {
			t.Fatalf("step %d: rec[%d] utility %g vs %g", idx, i, ra.Utility, rb.Utility)
		}
	}
}

// TestSessionCachedMatchesUncached runs the same exploration walk —
// root, drill-down, Back to root (a revisit) — on two explorers that
// differ only in the engine cache, and demands indistinguishable
// StepResults. This is the harness clause "cached vs. uncached step
// sequences return identical Results": the cache stores accumulators,
// not finalized maps, so a hit re-finalizes against the session's
// current seen set and can never leak stale utilities.
func TestSessionCachedMatchesUncached(t *testing.T) {
	db := coreDB(t)

	cfg := DefaultConfig()
	cfg.Engine.Workers = 4

	exC, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exU, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exU.Gen.Cache = nil // a nil cache is the disabled cache

	sC, err := NewSession(exC, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	sU, err := NewSession(exU, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}

	step := func(idx int) *StepResult {
		t.Helper()
		rc, err := sC.Step()
		if err != nil {
			t.Fatal(err)
		}
		ru, err := sU.Step()
		if err != nil {
			t.Fatal(err)
		}
		assertStepsEqual(t, idx, rc, ru)
		return rc
	}

	first := step(0)
	if len(first.Recommendations) == 0 {
		t.Fatal("no recommendations at root")
	}
	// Drill into the top recommendation on both sessions.
	if err := sC.ApplyRecommendation(0); err != nil {
		t.Fatal(err)
	}
	if err := sU.Apply(first.Recommendations[0].Op); err != nil {
		t.Fatal(err)
	}
	step(1)
	// Back to the root: the cached session replays this selection (and
	// every re-evaluated candidate operation) from the accumulator cache,
	// but against a seen set two steps richer — results must still match
	// the uncached recomputation exactly.
	if !sC.Back() || !sU.Back() {
		t.Fatal("Back failed")
	}
	step(2)

	st := exC.EngineCacheStats()
	if st.Hits == 0 {
		t.Fatalf("revisit produced no cache hits: %+v", st)
	}
	if exU.EngineCacheStats() != (engine.CacheStats{}) {
		t.Fatalf("uncached explorer reported cache stats: %+v", exU.EngineCacheStats())
	}

	exC.InvalidateEngineCache()
	if st := exC.EngineCacheStats(); st.Entries != 0 || st.UsedRecords != 0 {
		t.Fatalf("post-invalidate stats %+v", st)
	}
}

// TestConcurrentSessionsFinalizeSharedAccumulators: two sessions of one
// explorer walk root → drill-down → Back at the same time, so both finalize
// the same cached accumulators — the displayed groups' and every candidate
// operation's — concurrently, each against its own seen set. The
// accumulators are read-only and finalize's scratch is borrowed per call,
// so under -race this must be silent, and both walks must show what an
// uncached explorer shows for the same walk.
func TestConcurrentSessionsFinalizeSharedAccumulators(t *testing.T) {
	db := coreDB(t)
	cfg := DefaultConfig()
	cfg.Engine.Workers = 2
	walk := func(ex *Explorer) ([]*StepResult, error) {
		s, err := NewSession(ex, RecommendationPowered, query.Description{})
		if err != nil {
			return nil, err
		}
		var steps []*StepResult
		for i := 0; i < 3; i++ {
			res, err := s.Step()
			if err != nil {
				return nil, err
			}
			steps = append(steps, res)
			switch i {
			case 0:
				err = s.ApplyRecommendation(0)
			case 1:
				s.Back()
			}
			if err != nil {
				return nil, err
			}
		}
		return steps, nil
	}

	exU, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exU.Gen.Cache = nil
	want, err := walk(exU)
	if err != nil {
		t.Fatal(err)
	}

	exC, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := walk(exC); err != nil { // fill the cache: the walks below hit
		t.Fatal(err)
	}
	before := exC.EngineCacheStats().Hits
	got := make([][]*StepResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = walk(exC)
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := range want {
			assertStepsEqual(t, i, got[w][i], want[i])
		}
	}
	if hits := exC.EngineCacheStats().Hits - before; hits == 0 {
		t.Fatal("the concurrent walks never hit the accumulator cache: nothing was shared")
	}
}

// TestConcurrentSmallGroupsShareNoAccumulator: candidate groups under the
// accumulator cache's admission floor scan into recycled accumulators, and
// two goroutines evaluating such groups of one explorer at once must each
// hold their own for the length of the call — under -race a shared one is a
// report, and without it a wrong utility: every evaluation must equal what
// an explorer without a cache computes for the operation alone.
func TestConcurrentSmallGroupsShareNoAccumulator(t *testing.T) {
	db := coreDB(t)
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain.Gen.Cache = nil
	seen := ratingmap.NewSeenSet()
	start := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	ops, err := (&RecommendationBuilder{Ex: ex}).CandidateOps(start, nil)
	if err != nil {
		t.Fatal(err)
	}
	var small []query.Operation
	var want []float64
	for _, op := range ops {
		// 150 records is under the floor (TestSmallGroupsBypassTheCache in
		// internal/engine pins it from the inside); Bypassed below says so.
		if g, err := ex.Query.Materialize(op.Target); err != nil || g.Len() == 0 || g.Len() > 150 {
			continue
		}
		u, err := plain.OperationUtility(op, seen)
		if err != nil {
			t.Fatal(err)
		}
		small, want = append(small, op), append(want, u)
	}
	if len(small) < 10 {
		t.Fatalf("only %d candidate operations with a small group; the test needs a crowd", len(small))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range small {
					at := (i + w*len(small)/2) % len(small) // the two never walk in step
					if u, err := ex.OperationUtility(small[at], seen); err != nil || u != want[at] {
						t.Errorf("%s: utility %v (%v), alone and uncached %v", small[at], u, err, want[at])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := ex.EngineCacheStats(); st.Bypassed != int64(2*5*len(small)) || st.Entries != 0 {
		t.Fatalf("%d small groups evaluated 10 times each: %+v", len(small), st)
	}
}

// TestMaterializeSpanSaysFoundOrBuilt steps twice on one demo selection and
// reads the query.materialize span of each: the first group is built
// (cache = miss), the second found in the group cache (cache = hit), with
// the same record count — the one thing that tells a cold materialization
// from a served one in a trace.
func TestMaterializeSpanSaysFoundOrBuilt(t *testing.T) {
	db, err := gen.Demo(gen.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	attr := db.Reviewers.Schema.At(0).Name
	values, err := ex.Query.AttributeValues(query.ReviewerSide, attr)
	if err != nil {
		t.Fatal(err)
	}
	desc := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: attr, Value: values[0]})
	sink := obs.NewRingSink(2)
	ctx := obs.WithSink(context.Background(), sink)
	for _, want := range []string{"miss", "hit"} {
		res, err := ex.RMSetCtx(ctx, desc, ratingmap.NewSeenSet())
		if err != nil {
			t.Fatal(err)
		}
		var m *obs.SpanData
		for _, c := range sink.Snapshot()[0].Children { // newest first
			if c.Name == "query.materialize" {
				m = c
			}
		}
		if m == nil {
			t.Fatal("core.rmset recorded no query.materialize span")
		}
		if got := m.Attrs["cache"]; got != want {
			t.Errorf("query.materialize cache = %v, want %q", got, want)
		}
		if got := m.Attrs["records"]; got != res.GroupSize {
			t.Errorf("query.materialize records = %v, want the group's %d", got, res.GroupSize)
		}
	}
}
