package engine

import (
	"context"
	"sync"
	"testing"

	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// forcePhased returns a config that takes the phased path on the test DB
// with four scan workers.
func forcePhased() Config {
	cfg := DefaultConfig()
	cfg.MinPhaseRecords = 1
	cfg.Workers = 4
	return cfg
}

// TestInstrumentedTopMaps checks that the hot-path metrics agree with the
// result's own counters and that the span tree has the expected shape.
func TestInstrumentedTopMaps(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	reg := obs.NewRegistry()
	g.Metrics = NewMetrics(reg)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})

	ring := obs.NewRingSink(4)
	ctx := obs.WithSink(context.Background(), ring)

	res, err := g.TopMapsCtx(ctx, group, cands, ratingmap.NewSeenSet(), 9, forcePhased())
	if err != nil {
		t.Fatal(err)
	}

	if got := g.Metrics.Candidates.Value(); got != int64(len(cands)) {
		t.Errorf("candidates counter = %d, want %d", got, len(cands))
	}
	if got := g.Metrics.PrunedCI.Value(); got != int64(res.PrunedCI) {
		t.Errorf("ci counter = %d, result says %d", got, res.PrunedCI)
	}
	if got := g.Metrics.PrunedMAB.Value(); got != int64(res.PrunedMAB) {
		t.Errorf("mab counter = %d, result says %d", got, res.PrunedMAB)
	}
	if res.PrunedCI+res.PrunedMAB == 0 {
		t.Error("subdex_engine_candidates_pruned_total did not move: the phased run pruned nothing")
	}
	if got := g.Metrics.Finalized.Value(); got != int64(len(res.Maps)) {
		t.Errorf("finalized counter = %d, want %d", got, len(res.Maps))
	}
	if g.Metrics.TopMapsLatency.Count() != 1 {
		t.Errorf("topmaps histogram count = %d, want 1", g.Metrics.TopMapsLatency.Count())
	}
	if g.Metrics.PhaseLatency.Count() < 1 {
		t.Error("phased run must record phase latencies")
	}

	spans := ring.Snapshot("", 0)
	if len(spans) != 1 {
		t.Fatalf("want 1 root span, got %d", len(spans))
	}
	root := spans[0]
	if root.Name != "engine.topmaps" {
		t.Fatalf("root span %q", root.Name)
	}
	if root.Attrs["candidates"] != len(cands) || root.Attrs["phased"] != true {
		t.Fatalf("root attrs: %v", root.Attrs)
	}
	if len(root.Children) < 1 || root.Children[0].Name != "engine.phase" {
		t.Fatalf("want engine.phase children, got %+v", root.Children)
	}
}

// TestInstrumentedTopMapsConcurrent hammers one shared Generator+Metrics
// from several goroutines with four scan workers — the race-clean
// guarantee the server relies on. Run with -race.
func TestInstrumentedTopMapsConcurrent(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	g.Metrics = NewMetrics(obs.NewRegistry())
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine owns its seen set (sessions are
			// single-threaded); the generator and metrics are shared.
			_, errs[i] = g.TopMapsCtx(context.Background(), group, cands, ratingmap.NewSeenSet(), 9, forcePhased())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Metrics.Candidates.Value(); got != int64(goroutines*len(cands)) {
		t.Errorf("candidates counter = %d, want %d", got, goroutines*len(cands))
	}
	if got := g.Metrics.TopMapsLatency.Count(); got != goroutines {
		t.Errorf("topmaps histogram count = %d, want %d", got, goroutines)
	}
}

// TestUninstrumentedIsUnchanged pins the zero-overhead contract: a nil
// Metrics and sink-free context produce identical results to the seed
// behaviour (and must not panic anywhere on the instrumented path).
func TestUninstrumentedIsUnchanged(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})

	a, err := g.TopMapsCtx(context.Background(), group, cands, ratingmap.NewSeenSet(), 9, forcePhased())
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGenerator(db)
	g2.Metrics = NewMetrics(obs.NewRegistry())
	b, err := g2.TopMapsCtx(context.Background(), group, cands, ratingmap.NewSeenSet(), 9, forcePhased())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Maps) != len(b.Maps) || a.PrunedCI != b.PrunedCI || a.PrunedMAB != b.PrunedMAB {
		t.Fatalf("instrumentation changed results: %d/%d/%d vs %d/%d/%d",
			len(a.Maps), a.PrunedCI, a.PrunedMAB, len(b.Maps), b.PrunedCI, b.PrunedMAB)
	}
	for i := range a.Utilities {
		if a.Utilities[i] != b.Utilities[i] {
			t.Fatalf("utility %d changed: %v vs %v", i, a.Utilities[i], b.Utilities[i])
		}
	}
}
