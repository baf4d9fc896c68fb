package engine

import (
	"context"
	"errors"
	"slices"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// engineDB generates a moderately sized synthetic database once per test
// binary (generation dominates test time otherwise).
func engineDB(t testing.TB) *dataset.DB {
	t.Helper()
	db, err := gen.Yelp(gen.Config{Seed: 5, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func rootGroup(t testing.TB, db *dataset.DB) (*query.Engine, *query.RatingGroup) {
	t.Helper()
	qe, err := query.NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qe.Materialize(query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	return qe, g
}

func TestCandidatesEnumeration(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, _ := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	// 24 attributes × 4 dimensions = 96 candidates at the root.
	if len(cands) != 96 {
		t.Fatalf("candidates = %d, want 96", len(cands))
	}
	// Binding an attribute removes its 4 dimension-candidates.
	bound := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "male"})
	if got := len(g.Candidates(qe, bound)); got != 92 {
		t.Fatalf("bound candidates = %d, want 92", got)
	}
}

func TestTopMapsUnprunedRanking(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	seen := ratingmap.NewSeenSet()

	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	res, err := g.TopMapsCtx(context.Background(), group, cands, seen, 9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) != 9 || len(res.Utilities) != 9 {
		t.Fatalf("got %d maps, want 9", len(res.Maps))
	}
	for i := 1; i < len(res.Utilities); i++ {
		if res.Utilities[i] > res.Utilities[i-1]+1e-12 {
			t.Fatalf("utilities not descending at %d: %v", i, res.Utilities)
		}
	}
	if res.Considered != len(cands) {
		t.Errorf("Considered = %d, want %d", res.Considered, len(cands))
	}
	if res.PrunedCI != 0 || res.PrunedMAB != 0 {
		t.Errorf("no pruning expected: %d, %d", res.PrunedCI, res.PrunedMAB)
	}
}

func TestTopMapsKPrimeValidation(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	if _, err := g.TopMapsCtx(context.Background(), group, cands, ratingmap.NewSeenSet(), 0, DefaultConfig()); err == nil {
		t.Fatal("kPrime=0 must be rejected")
	}
}

func TestTopMapsEmptyCandidates(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	_, group := rootGroup(t, db)
	res, err := g.TopMapsCtx(context.Background(), group, nil, ratingmap.NewSeenSet(), 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) != 0 {
		t.Fatal("no candidates must yield no maps")
	}
}

// TestPrunedAgreesWithExactTopK is the core correctness property of the
// pruning machinery: the pruned top-k' must w.h.p. overlap the exact top-k'
// heavily. We demand at least 2/3 overlap of the top 9 (the schemes are
// probabilistic by design).
func TestPrunedAgreesWithExactTopK(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	seen := ratingmap.NewSeenSet()

	exactCfg := DefaultConfig()
	exactCfg.Pruning = PruneNone
	exact, err := g.TopMapsCtx(context.Background(), group, cands, seen, 9, exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	exactSet := map[ratingmap.Key]bool{}
	for _, rm := range exact.Maps {
		exactSet[rm.Key] = true
	}

	for _, pr := range []Pruning{PruneCI, PruneMAB, PruneBoth} {
		cfg := DefaultConfig()
		cfg.Pruning = pr
		cfg.MinPhaseRecords = 100 // force the phased path
		res, err := g.TopMapsCtx(context.Background(), group, cands, seen, 9, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Maps) != 9 {
			t.Fatalf("%v: got %d maps", pr, len(res.Maps))
		}
		overlap := 0
		for _, rm := range res.Maps {
			if exactSet[rm.Key] {
				overlap++
			}
		}
		if overlap < 6 {
			t.Errorf("%v: only %d/9 of the exact top-k retained", pr, overlap)
		}
		if pr != PruneNone && res.PrunedCI+res.PrunedMAB == 0 {
			t.Errorf("%v: expected some pruning on %d candidates", pr, len(cands))
		}
	}
}

// TestTopMapsRepeatsExactly holds Algorithm 1 to one answer per input:
// pruning reads the survivors in candidate order — the pruner's slice and
// the accumulator's keys, position for position — so nothing that varies
// from run to run, such as a range over a map, may decide what is pruned
// or how it ranks. Twenty uncached calls per scheme on the phased path, 96
// candidates for k' = 9, must agree on every map, utility and pruning
// count.
func TestTopMapsRepeatsExactly(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	seen := ratingmap.NewSeenSet()
	for _, pr := range []Pruning{PruneNone, PruneCI, PruneMAB, PruneBoth} {
		cfg := DefaultConfig()
		cfg.Pruning = pr
		cfg.MinPhaseRecords = 100 // force the phased path
		var first *Result
		for call := 0; call < 20; call++ {
			res, err := g.TopMapsCtx(context.Background(), group, cands, seen, 9, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
				if pr != PruneNone && res.PrunedCI+res.PrunedMAB == 0 {
					t.Fatalf("%v: nothing pruned, so the pruner's order is not exercised", pr)
				}
				continue
			}
			if ratingmap.DigestMaps(res.Maps) != ratingmap.DigestMaps(first.Maps) ||
				!slices.Equal(res.Utilities, first.Utilities) ||
				res.PrunedCI != first.PrunedCI || res.PrunedMAB != first.PrunedMAB ||
				res.RecordsProcessed != first.RecordsProcessed {
				t.Fatalf("%v: call %d differs from call 0: pruned CI/MAB %d/%d against %d/%d, %d against %d records",
					pr, call, res.PrunedCI, res.PrunedMAB, first.PrunedCI, first.PrunedMAB,
					res.RecordsProcessed, first.RecordsProcessed)
			}
		}
	}
}

func TestTopMapsParallelEqualsSequential(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	seen := ratingmap.NewSeenSet()

	seq := DefaultConfig()
	seq.Pruning = PruneNone
	seq.Workers = 1
	par := seq
	par.Workers = 4

	a, err := g.TopMapsCtx(context.Background(), group, cands, seen, 9, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.TopMapsCtx(context.Background(), group, cands, seen, 9, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Maps {
		if a.Maps[i].Key != b.Maps[i].Key {
			t.Fatalf("parallel result diverges at %d: %v vs %v", i, a.Maps[i].Key, b.Maps[i].Key)
		}
	}
}

// estimated is a pruner over candidates 0..len(means)-1, k' = kPrime, as
// estimate would leave it had every criterion of candidate i read means[i]
// at dimension weight 1.
func estimated(t *testing.T, mode Pruning, kPrime int, means ...float64) *pruner {
	t.Helper()
	p, err := newPruner(make([]ratingmap.Key, len(means)), kPrime, mode)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range means {
		p.scores = append(p.scores, ratingmap.Scores{m, m, m, m})
		p.weights = append(p.weights, 1)
		p.means = append(p.means, m)
	}
	return p
}

func TestCIPruneDominance(t *testing.T) {
	// Two candidates with far-apart means: at a late phase (tight radius),
	// the weak one must be pruned; at an early phase (wide radius), not.
	p := estimated(t, PruneCI, 2, 0.9, 0.85, 0.1)
	late := p.ciPrune(9000, 10000)
	if len(late) != 1 || late[0] != 2 {
		t.Errorf("late-phase prune = %v, want [2]", late)
	}
	early := p.ciPrune(10, 10000)
	if len(early) != 0 {
		t.Errorf("early-phase prune = %v, want none (radius too wide)", early)
	}
}

func TestCIPruneRespectsAcceptedArms(t *testing.T) {
	// An arm accepted by the bandit must not be CI-pruned even if its
	// interval falls below.
	p := estimated(t, PruneBoth, 2, 0.9, 0.85, 0.1)
	p.sar.SetMeans([]float64{0.5, 0.2, 0.99})
	p.sar.Step() // accepts arm 2 (highest mean, large gap)
	if !p.sar.IsAccepted(2) {
		t.Fatal("the bandit did not accept arm 2")
	}
	for _, idx := range p.ciPrune(9000, 10000) {
		if idx == 2 {
			t.Fatal("accepted arm was CI-pruned")
		}
	}
}

func TestMinPhaseRecordsSkipsPhases(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, _ := rootGroup(t, db)
	// A tiny group must take the single-pass path: no pruning counters.
	desc := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "membership", Value: "elite"})
	group, err := qe.Materialize(desc)
	if err != nil {
		t.Fatal(err)
	}
	if group.Len() >= DefaultConfig().MinPhaseRecords {
		t.Skip("group unexpectedly large")
	}
	cands := g.Candidates(qe, desc)
	res, err := g.TopMapsCtx(context.Background(), group, cands, ratingmap.NewSeenSet(), 9, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedCI != 0 || res.PrunedMAB != 0 {
		t.Error("small groups must skip phased pruning")
	}
}

// TestPhasedCoversAllRecords verifies the phase loop feeds every record
// exactly once: the surviving top map's record count must equal the
// single-pass count for the same key.
func TestPhasedCoversAllRecords(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	seen := ratingmap.NewSeenSet()

	cfg := DefaultConfig()
	cfg.MinPhaseRecords = 100
	res, err := g.TopMapsCtx(context.Background(), group, cands, seen, 9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := ratingmap.Builder{DB: db}
	for _, rm := range res.Maps {
		ref := b.Build(query.Description{}, group.Records, []ratingmap.Key{rm.Key})[0]
		if rm.TotalRecords != ref.TotalRecords {
			t.Fatalf("key %v: phased total %d vs exact %d", rm.Key, rm.TotalRecords, ref.TotalRecords)
		}
	}
}

// TestTopMapsDegradedAtPhaseBoundaries cancels the context at successive
// phase boundaries (via the PhaseHook fault-injection seam) and asserts
// the anytime contract: no error, Degraded set, RecordsProcessed equal to
// the exact record prefix of the completed phases, and a usable ranked
// result finalized over that prefix.
func TestTopMapsDegradedAtPhaseBoundaries(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	n := len(group.Records)

	for _, cancelAt := range []int{1, 2, 3, 5} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig()
		cfg.Pruning = PruneCI // CI-only: no bandit early-exit below the boundary under test
		cfg.MinPhaseRecords = 100
		cfg.PhaseHook = func(_ context.Context, phase int) {
			if phase == cancelAt {
				cancel()
			}
		}
		res, err := g.TopMapsCtx(ctx, group, cands, ratingmap.NewSeenSet(), 9, cfg)
		cancel()
		if err != nil {
			t.Fatalf("cancel at phase %d: %v", cancelAt, err)
		}
		if !res.Degraded {
			t.Errorf("cancel at phase %d: result not marked degraded", cancelAt)
		}
		want := cancelAt * n / cfg.Phases
		if res.RecordsProcessed != want {
			t.Errorf("cancel at phase %d: RecordsProcessed = %d, want %d",
				cancelAt, res.RecordsProcessed, want)
		}
		if len(res.Maps) == 0 || len(res.Maps) > 9 {
			t.Errorf("cancel at phase %d: got %d maps, want 1..9", cancelAt, len(res.Maps))
		}
		for i := 1; i < len(res.Utilities); i++ {
			if res.Utilities[i] > res.Utilities[i-1]+1e-12 {
				t.Errorf("cancel at phase %d: degraded utilities not descending", cancelAt)
			}
		}
	}
}

// TestTopMapsCancelledBeforeFirstPhase asserts the failure half of the
// contract: cancellation before any phase boundary returns ctx.Err() on
// both the phased and the single-pass path.
func TestTopMapsCancelledBeforeFirstPhase(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	phased := DefaultConfig()
	phased.MinPhaseRecords = 100
	if _, err := g.TopMapsCtx(ctx, group, cands, ratingmap.NewSeenSet(), 9, phased); !errors.Is(err, context.Canceled) {
		t.Fatalf("phased: err = %v, want context.Canceled", err)
	}

	single := DefaultConfig()
	single.Pruning = PruneNone // forces the single-pass path
	if _, err := g.TopMapsCtx(ctx, group, cands, ratingmap.NewSeenSet(), 9, single); !errors.Is(err, context.Canceled) {
		t.Fatalf("single-pass: err = %v, want context.Canceled", err)
	}
}

// TestTopMapsCompleteScanNotDegraded pins the no-deadline behaviour: a
// run under a live context reports a full scan and no degradation.
func TestTopMapsCompleteScanNotDegraded(t *testing.T) {
	db := engineDB(t)
	g := NewGenerator(db)
	qe, group := rootGroup(t, db)
	cands := g.Candidates(qe, query.Description{})
	cfg := DefaultConfig()
	cfg.MinPhaseRecords = 100
	hooked := 0
	cfg.PhaseHook = func(context.Context, int) { hooked++ }
	res, err := g.TopMapsCtx(context.Background(), group, cands, ratingmap.NewSeenSet(), 9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("complete scan marked degraded")
	}
	if res.RecordsProcessed != len(group.Records) {
		t.Errorf("RecordsProcessed = %d, want %d", res.RecordsProcessed, len(group.Records))
	}
	if hooked == 0 {
		t.Error("phase hook never invoked")
	}
}

func TestPruningStringer(t *testing.T) {
	for p, want := range map[Pruning]string{
		PruneNone: "none", PruneCI: "ci", PruneMAB: "mab", PruneBoth: "ci+mab",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}
