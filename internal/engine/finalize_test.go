package engine

// Tests for what finalize shares and borrows: the ranking prefix (rankTop),
// the per-chunk global-peculiarity memo and the pooled scratch must leave
// exactly the maps and utilities of the plain recipe — score every
// candidate on its own, stable-sort all of them, cut.

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"subdex/internal/ratingmap"
	"subdex/internal/stats"
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
func finalizeOracle(acc *ratingmap.Accumulator, seen *ratingmap.SeenSet, kPrime int, cfg Config, scoredN int) (digest string, utilities []float64) {
	keys := acc.Keys()
	scores := make([]ratingmap.Scores, scoredN)
	order := make([]int, scoredN)
	for i := range order {
		order[i] = i
		scores[i] = acc.ScoresAt(i, seen, 1, cfg.Utility.Peculiarity, nil)
	}
	if cfg.Utility.Normalize && scoredN > 1 {
		col := make([]float64, scoredN)
		for c := ratingmap.Criterion(0); c < ratingmap.NumCriteria; c++ {
			for i := range col {
				col[i] = scores[i][c]
			}
			stats.MinMaxNormalize(col)
			for i := range col {
				scores[i][c] = col[i]
			}
		}
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
	}
	return ratingmap.DigestMaps(maps), utilities
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
// matter, finalize returns the oracle's maps and utilities bit for bit —
// for answers on both sides of rankTopFactor's switch and larger than the
// candidate set, with and without normalization, under both measures, with
// one worker and with three (three memos), and when the scoring pass is
// cancelled part-way (order shorter than keys: the call degrades and ranks
// what it scored).
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
		for _, normalize := range []bool{false, true} {
			for _, m := range []ratingmap.PeculiarityMeasure{ratingmap.PecTVD, ratingmap.PecKL} {
				for _, workers := range []int{1, 3} {
					for _, scoredN := range []int{len(keys), len(keys) / 2, 1} {
						if scoredN < len(keys) && workers > 1 {
							continue // which candidates a cancelled parallel pass reached is not fixed
						}
						cfg := DefaultConfig()
						cfg.Workers = workers
						cfg.Utility.Normalize = normalize
						cfg.Utility.Peculiarity = m
						label := fmt.Sprintf("k'=%d normalize=%t %v workers=%d scored=%d", kPrime, normalize, m, workers, scoredN)

						left := new(atomic.Int64)
						left.Store(int64(scoredN))
						res := &Result{Profile: &Profile{}}
						g.finalize(countdownCtx{context.Background(), left}, acc, seen, kPrime, cfg, nil, res)

						wantDigest, wantUtils := finalizeOracle(acc, seen, kPrime, cfg, scoredN)
						if got := ratingmap.DigestMaps(res.Maps); got != wantDigest {
							t.Fatalf("%s: maps differ from the oracle's\n got: %s\nwant: %s", label, got, wantDigest)
						}
						if !slices.Equal(res.Utilities, wantUtils) {
							t.Fatalf("%s: utilities %v, the oracle's %v", label, res.Utilities, wantUtils)
						}
						if wantDegraded := scoredN < len(keys); res.Degraded != wantDegraded {
							t.Fatalf("%s: Degraded = %t, want %t", label, res.Degraded, wantDegraded)
						}
					}
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
	cfg.Workers = 2

	seens := []*ratingmap.SeenSet{ratingmap.NewSeenSet(), ratingmap.NewSeenSet()}
	seens[1].Add(acc.SnapshotAt(2))
	var wg sync.WaitGroup
	for _, seen := range seens {
		wantDigest, wantUtils := finalizeOracle(acc, seen, 4, cfg, len(keys))
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
		want, err := NewGenerator(db).TopMaps(&group, keys, seen, 5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(db)
		g.Cache = NewTopMapsCache(1 << 20)
		for round, verdict := range []bool{false, true, false, true} { // the second pair is served from the cache where there is one
			var shown []float64
			res, err := g.TopMapsIf(&group, keys, seen, 5, cfg, func(ranked []float64) bool {
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
			case !verdict && res.Maps != nil:
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
