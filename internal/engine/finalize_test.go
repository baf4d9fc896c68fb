package engine

// Tests for what finalize shares and borrows: the ranking prefix (rankTop),
// the per-pass global-peculiarity memo and the pooled scratch must leave
// exactly the maps and utilities of the plain recipe — score every
// candidate on its own, stable-sort all of them, cut.

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// TestRankTopMatchesStableSort: for rankings of every size around
// rankTopFactor's switch — random utilities, utilities in long runs of ties,
// a ranking that is a subset of the positions (a cancelled scoring pass),
// k from 1 to the whole ranking — the first k positions are the stable
// sort's, and order is still a permutation of what it was.
func TestRankTopMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 2, 9, 27, 28, 92, 400} {
		for _, levels := range []int{0, 2, 5} { // 0: all distinct
			for _, subset := range []bool{false, true} {
				utils := make([]float64, n)
				var order []int
				for i := range utils {
					utils[i] = rng.Float64()
					if levels > 0 {
						utils[i] = float64(rng.Intn(levels)) / 4
					}
					if !subset || rng.Intn(3) > 0 {
						order = append(order, i)
					}
				}
				want := slices.Clone(order)
				slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(utils[b], utils[a]) })
				for _, k := range []int{1, 2, 9, len(order) / rankTopFactor, len(order)/rankTopFactor + 1, len(order)} {
					k = min(k, len(order))
					if k == 0 && len(order) > 0 {
						continue // kPrime is positive: only an empty ranking has an empty answer
					}
					got := slices.Clone(order)
					rankTop(got, utils, k)
					label := fmt.Sprintf("n=%d levels=%d subset=%t k=%d", n, levels, subset, k)
					if !slices.Equal(got[:k], want[:k]) {
						t.Fatalf("%s: first k are %v, the stable sort's %v", label, got[:k], want[:k])
					}
					slices.Sort(got)
					if !slices.Equal(got, order) {
						t.Fatalf("%s: order is no longer a permutation of its input", label)
					}
				}
			}
		}
	}
}

// finalizeOracle is finalize written plainly over the first scoredN
// candidates: no memo, no scratch, every candidate ranked by a stable sort.
func finalizeOracle(acc *ratingmap.Accumulator, seen *ratingmap.SeenSet, kPrime int, cfg Config, scoredN int) (digest string, utilities []float64, ranked []ratingmap.Scores) {
	keys := acc.Keys()
	scores := make([]ratingmap.Scores, scoredN)
	order := make([]int, scoredN)
	for i := range order {
		order[i] = i
		scores[i] = acc.ScoresAt(i, seen, 1, cfg.Utility.Peculiarity, nil)
	}
	utils := make([]float64, scoredN)
	for i := range utils {
		utils[i] = ratingmap.DWUtility(scores[i].Aggregate(cfg.Utility), keys[i].Dim, seen, cfg.Utility)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(utils[b], utils[a]) })
	var maps []*ratingmap.RatingMap
	for _, i := range order[:min(kPrime, scoredN)] {
		maps = append(maps, acc.SnapshotAt(i))
		utilities = append(utilities, utils[i])
		ranked = append(ranked, scores[i])
	}
	return ratingmap.DigestMaps(maps), utilities, ranked
}

// countdownCtx is alive for a fixed number of Err calls: finalize asks once
// per candidate, so the scoring pass is cancelled after exactly that many.
type countdownCtx struct {
	context.Context
	left *atomic.Int64
}

func (c countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestFinalizeMatchesOracle: over a seen set that makes global peculiarity
// matter, finalize returns the oracle's maps, utilities and scores bit for
// bit — for answers on both sides of rankTopFactor's switch and larger than
// the candidate set, under both measures, and when the scoring pass is
// cancelled part-way (it scored a prefix: the call degrades and ranks that
// prefix).
func TestFinalizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := buildRandomDB(t, rng, 30, 20, 2500)
	group := wholeGroup(t, db)
	keys := allCandidates(db)
	g := NewGenerator(db)
	acc := g.Builder.NewAccumulator(group.Desc, keys)
	acc.Update(group.Records)
	seen := ratingmap.NewSeenSet()
	for _, i := range []int{0, 3, 5} {
		seen.Add(acc.SnapshotAt(i))
	}

	for _, kPrime := range []int{1, 3, len(keys) / 2, len(keys), len(keys) + 4} {
		for _, m := range []ratingmap.PeculiarityMeasure{ratingmap.PecTVD, ratingmap.PecKL} {
			for _, scoredN := range []int{len(keys), len(keys) / 2, 1} {
				cfg := DefaultConfig()
				cfg.Utility.Peculiarity = m
				label := fmt.Sprintf("k'=%d %v scored=%d", kPrime, m, scoredN)

				left := new(atomic.Int64)
				left.Store(int64(scoredN))
				res := &Result{Profile: &Profile{}}
				g.finalize(countdownCtx{context.Background(), left}, acc, seen, kPrime, cfg, nil, res)

				wantDigest, wantUtils, wantScores := finalizeOracle(acc, seen, kPrime, cfg, scoredN)
				if got := ratingmap.DigestMaps(res.Maps); got != wantDigest {
					t.Fatalf("%s: maps differ from the oracle's\n got: %s\nwant: %s", label, got, wantDigest)
				}
				if !slices.Equal(res.Utilities, wantUtils) {
					t.Fatalf("%s: utilities %v, the oracle's %v", label, res.Utilities, wantUtils)
				}
				if !slices.Equal(res.Scores, wantScores) {
					t.Fatalf("%s: scores %v, the oracle's %v", label, res.Scores, wantScores)
				}
				if wantDegraded := scoredN < len(keys); res.Degraded != wantDegraded {
					t.Fatalf("%s: Degraded = %t, want %t", label, res.Degraded, wantDegraded)
				}
			}
		}
	}
}

// TestFinalizeConcurrentOnOneAccumulator: the cache hands one accumulator
// to every session that asks for it, so two goroutines may finalize it at
// once, each against its own seen set. The accumulator is only read and the
// scratch is per call; under -race this is the proof.
func TestFinalizeConcurrentOnOneAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	db := buildRandomDB(t, rng, 30, 20, 2500)
	group := wholeGroup(t, db)
	keys := allCandidates(db)
	g := NewGenerator(db)
	acc := g.Builder.NewAccumulator(group.Desc, keys)
	acc.Update(group.Records)
	cfg := DefaultConfig()

	seens := []*ratingmap.SeenSet{ratingmap.NewSeenSet(), ratingmap.NewSeenSet()}
	seens[1].Add(acc.SnapshotAt(2))
	var wg sync.WaitGroup
	for _, seen := range seens {
		wantDigest, wantUtils, _ := finalizeOracle(acc, seen, 4, cfg, len(keys))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				res := &Result{Profile: &Profile{}}
				g.finalize(context.Background(), acc, seen, 4, cfg, nil, res)
				if ratingmap.DigestMaps(res.Maps) != wantDigest || !slices.Equal(res.Utilities, wantUtils) {
					t.Errorf("round %d: a concurrent finalize changed this one's result", round)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFinalizeIntoFittingResultAllocatesNothing: a finalize writing over a
// Result whose slices and maps already fit — what a recommendation pass's
// calls after its first do — allocates nothing: the scoring loop, its memo
// and the scratch all come without one.
func TestFinalizeIntoFittingResultAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops what is Put into it at random")
	}
	rng := rand.New(rand.NewSource(47))
	db := buildRandomDB(t, rng, 30, 20, 2500)
	group := wholeGroup(t, db)
	keys := allCandidates(db)
	g := NewGenerator(db)
	acc := g.Builder.NewAccumulator(group.Desc, keys)
	acc.Update(group.Records)
	seen := ratingmap.NewSeenSet()
	seen.Add(acc.SnapshotAt(1))
	cfg := DefaultConfig()
	const kPrime = 9
	res := &Result{Profile: &Profile{}}
	finalize := func() {
		res.reset(Profile{})
		g.finalize(context.Background(), acc, seen, kPrime, cfg, nil, res)
	}
	finalize() // the maps the later calls write over
	if len(res.Maps) != kPrime {
		t.Fatalf("finalize kept %d maps, want %d", len(res.Maps), kPrime)
	}
	if allocs := testing.AllocsPerRun(100, finalize); allocs != 0 {
		t.Fatalf("finalize over a fitting Result allocated %v times a call, want 0", allocs)
	}
}

// BenchmarkRankTop is the measurement behind rankTopFactor: the first k of
// n candidates by the insertion pass and by the stable sort, on both sides
// of the factor.
func BenchmarkRankTop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{92, 400} {
		utils := make([]float64, n)
		fresh := make([]int, n)
		for i := range utils {
			utils[i], fresh[i] = rng.Float64(), i
		}
		order := make([]int, n)
		for _, k := range []int{9, 30, 92} {
			b.Run(fmt.Sprintf("n=%d/k=%d/insert", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(order, fresh)
					insertTop(order, utils, k)
				}
			})
		}
		b.Run(fmt.Sprintf("n=%d/sort", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(order, fresh)
				slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(utils[b], utils[a]) })
			}
		})
	}
}

// TestTopMapsIfGate: keep sees exactly the utilities TopMaps returns, in
// rank order, before a map exists; turning them down leaves a Gated result
// with those utilities and no maps, accepting them (or passing no keep)
// leaves TopMaps' result — on a scanned group, a bypassed one and a cache
// hit alike, and a gated call neither blocks admission nor spoils the entry.
// The rounds share one Result, so a gated round after a kept one must leave
// no map behind.
func TestTopMapsIfGate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := buildRandomDB(t, rng, 30, 20, 2500)
	whole := wholeGroup(t, db)
	keys := allCandidates(db)
	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	seen := ratingmap.NewSeenSet()
	for _, size := range []int{len(whole.Records), cacheFloorRecords - 1} {
		group := *whole
		group.Records = whole.Records[:size]
		want, err := NewGenerator(db).TopMapsCtx(context.Background(), &group, keys, seen, 5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(db)
		g.Cache = NewTopMapsCache(1 << 20)
		// Every round overwrites res, a gated one after a kept one too.
		var res Result
		for round, verdict := range []bool{false, true, false, true} { // the second pair is served from the cache where there is one
			var shown []float64
			err := g.TopMapsIfCtx(context.Background(), &res, &group, keys, seen, 5, cfg, func(ranked []float64) bool {
				shown = slices.Clone(ranked)
				return verdict
			})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%d records, round %d (cache %s, keep = %t)", size, round, res.Profile.Cache, verdict)
			if !slices.Equal(shown, want.Utilities) || !slices.Equal(res.Utilities, want.Utilities) {
				t.Fatalf("%s: keep saw %v, the result holds %v, TopMaps ranks %v", label, shown, res.Utilities, want.Utilities)
			}
			if !slices.IsSortedFunc(shown, func(a, b float64) int { return cmp.Compare(b, a) }) {
				t.Fatalf("%s: keep saw utilities out of rank order: %v", label, shown)
			}
			if res.Gated == verdict {
				t.Fatalf("%s: Gated = %t", label, res.Gated)
			}
			switch {
			case !verdict && len(res.Maps) != 0:
				t.Fatalf("%s: a gated result holds %d maps", label, len(res.Maps))
			case verdict && ratingmap.DigestMaps(res.Maps) != ratingmap.DigestMaps(want.Maps):
				t.Fatalf("%s: the kept result's maps differ from TopMaps'", label)
			}
		}
		if st, cached := g.Cache.Stats(), size >= cacheFloorRecords; cached && (st.Entries != 1 || st.Hits != 3) || !cached && st.Bypassed != 4 {
			t.Fatalf("%d records: cache stats %+v", size, st)
		}
	}
}

// TestReusedResultEqualsFresh runs one Result through every kind of call —
// a cache miss, a hit, a bypass, a gated and a kept call, a degraded pruned
// scan, a call without candidates — with k′ growing and shrinking between
// them. After each call it holds what the same call returns in a fresh
// Result on a generator that made the same calls: the same maps, utilities,
// scores, counters and profile (timings aside). And it is reused, not
// replaced: its Profile stays the one it had, and each position of Maps
// holds the map it first held there, written over.
func TestReusedResultEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := buildRandomDB(t, rng, 30, 20, 2500)
	whole := wholeGroup(t, db)
	part := func(n int) *query.RatingGroup {
		g := *whole
		g.Records = whole.Records[:n]
		return &g
	}
	keys := allCandidates(db)
	unpruned := DefaultConfig()
	unpruned.Pruning = PruneNone
	phased := DefaultConfig()
	phased.MinPhaseRecords = 100
	calls := []struct {
		name     string
		group    *query.RatingGroup
		keys     []ratingmap.Key
		kPrime   int
		cfg      Config
		keep     *bool // nil: no keep
		cancelAt int   // > 0: the context dies before that phase
		cache    string
	}{
		{name: "miss", group: whole, keys: keys, kPrime: 5, cfg: unpruned, cache: "miss"},
		{name: "hit", group: whole, keys: keys, kPrime: 5, cfg: unpruned, cache: "hit"},
		{name: "bypass", group: part(cacheFloorRecords - 1), keys: keys, kPrime: 9, cfg: unpruned, cache: "bypass"},
		{name: "gated", group: whole, keys: keys, kPrime: 9, cfg: unpruned, keep: new(bool), cache: "hit"},
		{name: "kept", group: whole, keys: keys, kPrime: len(keys), cfg: unpruned, keep: &[]bool{true}[0], cache: "hit"},
		{name: "degraded", group: part(2000), keys: keys, kPrime: 3, cfg: phased, cancelAt: 4, cache: "miss"},
		{name: "no candidates", group: whole, kPrime: 9, cfg: unpruned, cache: "off"},
		{name: "kept after none", group: part(1000), keys: keys[2:], kPrime: 7, cfg: unpruned, cache: "miss"},
	}
	reused, fresh := NewGenerator(db), NewGenerator(db)
	reused.Cache, fresh.Cache = NewTopMapsCache(1<<20), NewTopMapsCache(1<<20)
	run := func(g *Generator, res *Result, c int) {
		t.Helper()
		call := calls[c]
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := call.cfg
		if call.cancelAt > 0 {
			cfg.PhaseHook = func(_ context.Context, phase int) {
				if phase == call.cancelAt {
					cancel()
				}
			}
		}
		var keep func([]float64) bool
		if call.keep != nil {
			keep = func([]float64) bool { return *call.keep }
		}
		if err := g.TopMapsIfCtx(ctx, res, call.group, call.keys, ratingmap.NewSeenSet(), call.kPrime, cfg, keep); err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
	}

	var res Result
	var prof *Profile
	var positions []*ratingmap.RatingMap // the first map each position of res.Maps held
	for c, call := range calls {
		run(reused, &res, c)
		want := new(Result)
		run(fresh, want, c)
		if res.Profile.Cache != call.cache || want.Profile.Cache != call.cache {
			t.Fatalf("%s: cache %q (reused) and %q (fresh), want %q", call.name, res.Profile.Cache, want.Profile.Cache, call.cache)
		}
		if want.Gated != (call.keep != nil && !*call.keep) || want.Degraded != (call.cancelAt > 0) || want.Profile.Phased != (call.cancelAt > 0) {
			t.Fatalf("%s: fresh result gated %t, degraded %t, phased %t", call.name, want.Gated, want.Degraded, want.Profile.Phased)
		}
		if got, w := ratingmap.DigestMaps(res.Maps), ratingmap.DigestMaps(want.Maps); got != w {
			t.Fatalf("%s: maps\n%s\nwant\n%s", call.name, got, w)
		}
		if !slices.Equal(res.Utilities, want.Utilities) || !slices.Equal(res.Scores, want.Scores) {
			t.Fatalf("%s: utilities %v scores %v, want %v %v", call.name, res.Utilities, res.Scores, want.Utilities, want.Scores)
		}
		if got, w := res.counters(), want.counters(); got != w {
			t.Fatalf("%s: counters %+v, want %+v", call.name, got, w)
		}
		if got, w := untimed(res.Profile), untimed(want.Profile); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: profile %+v, want %+v", call.name, got, w)
		}
		if prof == nil {
			prof = res.Profile
		} else if res.Profile != prof {
			t.Fatalf("%s: the result's Profile was replaced", call.name)
		}
		for j, rm := range res.Maps {
			if j == len(positions) {
				positions = append(positions, rm)
			} else if rm != positions[j] {
				t.Fatalf("%s: position %d holds a new map", call.name, j)
			}
		}
	}
}

// resultCounters is a Result without its slices and Profile.
type resultCounters struct {
	prunedCI, prunedMAB, considered, recordsProcessed int
	degraded, gated                                   bool
}

func (r *Result) counters() resultCounters {
	return resultCounters{r.PrunedCI, r.PrunedMAB, r.Considered, r.RecordsProcessed, r.Degraded, r.Gated}
}

// untimed is a copy of p without its wall times, and with an empty Phases
// or Cluster as nil: a reused Profile keeps those arrays.
func untimed(p *Profile) Profile {
	q := *p
	q.FinalizeMS, q.TotalMS, q.ClusterMergeMS = 0, 0, 0
	q.Phases = nil
	for _, ph := range p.Phases {
		ph.DurationMS = 0
		q.Phases = append(q.Phases, ph)
	}
	if len(q.Cluster) == 0 {
		q.Cluster = nil
	}
	return q
}
