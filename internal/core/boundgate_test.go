package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// referenceRecommendations is Equation 2's top-o with no gate and no derived
// group: OperationUtility — a materialization from the entity tables and a
// full evaluation — of every CandidateOps operation, through the scorer if
// there is one, stably sorted and cut to o. ex should have no accumulator
// cache, so that nothing the gated pass left behind reaches the reference.
func referenceRecommendations(t *testing.T, ex *Explorer, cur query.Description, maps []*ratingmap.RatingMap,
	seen *ratingmap.SeenSet, o int) []Recommendation {
	t.Helper()
	rb := RecommendationBuilder{Ex: ex}
	ops, err := rb.CandidateOps(cur, maps)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Recommendation
	for _, op := range ops {
		u, err := ex.OperationUtility(op, seen)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Cfg.Scorer != nil {
			u = ex.Cfg.Scorer.ScoreOperation(op, u)
		}
		recs = append(recs, Recommendation{Op: op, Utility: u})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Utility > recs[j].Utility })
	if o > 0 && len(recs) > o {
		recs = recs[:o]
	}
	return recs
}

// recommendTraced runs one pass under a span sink and returns its result
// with the core.recommend span's attributes.
func recommendTraced(t *testing.T, ex *Explorer, cur query.Description, maps []*ratingmap.RatingMap,
	seen *ratingmap.SeenSet, o int) ([]Recommendation, int, map[string]any) {
	t.Helper()
	sink := obs.NewRingSink(1)
	recs, durs, err := (&RecommendationBuilder{Ex: ex}).RecommendCtx(obs.WithSink(context.Background(), sink), cur, maps, seen, o)
	if err != nil {
		t.Fatal(err)
	}
	return recs, len(durs), sink.Snapshot()[0].Attrs
}

func assertSameRecommendations(t *testing.T, label string, got, want []Recommendation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d recommendations, the reference has %d", label, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Op.Kind != w.Op.Kind || !g.Op.Target.Equal(w.Op.Target) || g.Utility != w.Utility {
			t.Fatalf("%s: #%d is %s (%v), the reference has %s (%v)", label, i, g.Op, g.Utility, w.Op, w.Utility)
		}
	}
}

// TestBoundGateMatchesReference is the exactness proof of the gate: on every
// dataset shape, at every step of a seeded walk that drills three selectors
// deep and then moves any way it can, the recommendations of a gated pass —
// with the accumulator cache and without it — are the reference's: same
// operations, same order, utilities bit for bit, and both passes turn down
// the same number of candidates. The gate must also have done something: over
// each walk it turns candidates down, and never all of them.
func TestBoundGateMatchesReference(t *testing.T) {
	for _, ds := range walkShapes {
		t.Run(ds.name, func(t *testing.T) {
			db, err := ds.build(gen.Config{Seed: 11, Scale: ds.scale})
			if err != nil {
				t.Fatal(err)
			}
			explorer := func(cache bool) *Explorer {
				ex, err := NewExplorer(db, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if !cache {
					ex.Gen.Cache = nil
				}
				return ex
			}
			off, on := explorer(false), explorer(true) // off is also the reference's: it keeps nothing between calls
			sess, err := NewSession(on, RecommendationPowered, query.Description{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(25))
			bounded, evaluated := 0, 0
			for step := 0; step < 6; step++ {
				res, err := sess.Step()
				if err != nil {
					t.Fatal(err)
				}
				cur, seen := sess.Current(), sess.Seen()
				want := referenceRecommendations(t, off, cur, res.Maps, seen, on.Cfg.O)
				assertSameRecommendations(t, "the session's step", res.Recommendations, want)
				var gated [2]int
				for i, ex := range []*Explorer{on, off} {
					got, n, attrs := recommendTraced(t, ex, cur, res.Maps, seen, ex.Cfg.O)
					assertSameRecommendations(t, cur.String(), got, want)
					if n != len(res.RecOpDurations) || attrs["evaluated"] != n {
						t.Fatalf("%s: %d durations, evaluated = %v; the session's step had %d candidates", cur, n, attrs["evaluated"], len(res.RecOpDurations))
					}
					gated[i] = attrs["bounded"].(int)
					bounded += gated[i]
					evaluated += n
				}
				if gated[0] != gated[1] {
					t.Fatalf("%s: the gate turned down %d candidates with the cache and %d without", cur, gated[0], gated[1])
				}
				// Drill down first, then move any way the recommendations allow.
				ops, err := sess.rb.CandidateOps(cur, res.Maps)
				if err != nil {
					t.Fatal(err)
				}
				var next []query.Operation
				for _, op := range ops {
					if g, err := on.Query.Materialize(op.Target); err == nil && g.Len() > 0 && (cur.Len() >= 3 || op.Kind == query.Filter) {
						next = append(next, op)
					}
				}
				if len(next) == 0 {
					break
				}
				if err := sess.Apply(next[rng.Intn(len(next))]); err != nil {
					t.Fatal(err)
				}
			}
			if bounded == 0 || bounded >= evaluated {
				t.Errorf("the gate turned down %d of %d candidates; want some, not all", bounded, evaluated)
			}
		})
	}
}

// TestBoundGateSumProperty is the inequality the gate rests on, in float64:
// for utilities in descending order, long runs of ties included, the sum of
// any k-subset that contains rank 0, added in rank order, is at most the sum
// of the first k added in rank order — never above it by a rounding — and
// for k ≥ n the two are the same sum.
func TestBoundGateSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sum := func(utils []float64, ranks []int) float64 {
		s := 0.0
		for _, r := range ranks {
			s += utils[r]
		}
		return s
	}
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(12)
		utils := make([]float64, n)
		levels := []float64{rng.Float64(), rng.Float64() * 1e-9, rng.Float64() * 3, 0.1, 0.7}
		for i := range utils {
			if utils[i] = rng.Float64() * 2; round%2 == 0 { // every other round: a few values, so long tie runs
				utils[i] = levels[rng.Intn(len(levels))]
			}
		}
		slices.SortFunc(utils, func(a, b float64) int { return cmp.Compare(b, a) })
		first := make([]int, n)
		for i := range first {
			first[i] = i
		}
		for k := 1; k <= n+2; k++ {
			bound := sum(utils, first[:min(k, n)])
			if k >= n {
				if got := sum(utils, first); got != bound {
					t.Fatalf("k=%d ≥ n=%d: the only subset sums to %v, the bound is %v", k, n, got, bound)
				}
				continue
			}
			for trial := 0; trial < 20; trial++ {
				subset := append([]int{0}, rng.Perm(n - 1)[:k-1]...)
				for i := 1; i < len(subset); i++ {
					subset[i]++ // ranks 1..n-1
				}
				slices.Sort(subset)
				if got := sum(utils, subset); got > bound {
					t.Fatalf("utilities %v: ranks %v sum to %v, above the first %d's %v", utils, subset, got, k, bound)
				}
			}
		}
	}
}

// TestBoundGateOff pins the gate's one switch. With a Scorer — a
// LogAffinityScorer that has seen operations and boosts by Alpha > 0 — and
// with o = 0 no candidate is turned down (bounded = 0) and the pass returns
// the reference's ranking; and a candidate whose bound equals the o-th best
// utility so far is evaluated in full, only one strictly below it is not.
func TestBoundGateOff(t *testing.T) {
	db := coreDB(t)
	scorer := &LogAffinityScorer{Alpha: 0.8}
	for _, sel := range []query.Selector{
		{Side: query.ItemSide, Attr: db.Items.Schema.At(0).Name, Value: "x"},
		{Side: query.ReviewerSide, Attr: db.Reviewers.Schema.At(1).Name, Value: "y"},
	} {
		scorer.Observe(query.Operation{Kind: query.Filter, Target: query.MustDescription(sel), Added: &sel})
	}
	for _, arm := range []struct {
		name   string
		scorer OperationScorer
		o      int
	}{
		{"scorer", scorer, 3},
		{"o=0", nil, 0},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scorer = arm.scorer
			ex, err := NewExplorer(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := NewExplorer(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain.Gen.Cache = nil
			seen := ratingmap.NewSeenSet()
			res, err := ex.RMSet(query.Description{}, seen)
			if err != nil {
				t.Fatal(err)
			}
			for _, rm := range res.Maps {
				seen.Add(rm)
			}
			got, n, attrs := recommendTraced(t, ex, query.Description{}, res.Maps, seen, arm.o)
			assertSameRecommendations(t, arm.name, got, referenceRecommendations(t, plain, query.Description{}, res.Maps, seen, arm.o))
			if attrs["bounded"] != 0 {
				t.Errorf("bounded = %v with the gate off", attrs["bounded"])
			}
			if arm.o == 0 && len(got) != n {
				t.Errorf("o = 0 returned %d of %d candidates", len(got), n)
			}
		})
	}

	ex, err := NewExplorer(db, DefaultConfig()) // K = 3
	if err != nil {
		t.Fatal(err)
	}
	pass := newRecPass(ex, &query.RatingGroup{}, 2)
	keep := pass.gate
	if !keep([]float64{0.1, 0.1, 0.1}) {
		t.Fatal("the gate turned a candidate down before it knew o utilities")
	}
	for _, u := range []float64{1.5, 0.25, 2, 1.5} {
		pass.offer(u) // the two best: 2 and 1.5
	}
	for _, c := range []struct {
		ranked []float64
		want   bool
	}{
		{[]float64{0.5, 0.5, 0.5, 0.5, 0.5}, true},   // bound 1.5: a tie is the stable sort's to decide
		{[]float64{0.5, 0.5, 0.4999, 0.4999}, false}, // strictly below
		{[]float64{1.5}, true},                       // fewer than K maps
		{[]float64{0.7, 0.7}, false},
		{[]float64{3, 0, 0}, true},
	} {
		if got := keep(c.ranked); got != c.want {
			t.Errorf("keep(%v) = %t with the 2nd best at 1.5, want %t", c.ranked, got, c.want)
		}
	}
	if pass.bounded != 2 {
		t.Errorf("bounded = %d, want the 2 candidates turned down", pass.bounded)
	}
	if newRecPass(ex, &query.RatingGroup{}, 0).gate != nil {
		t.Error("a pass with o = 0 has a gate")
	}
	ex.Cfg.Scorer = EquationTwoScorer{}
	if newRecPass(ex, &query.RatingGroup{}, 3).gate != nil {
		t.Error("a pass with a Scorer has a gate")
	}
}
