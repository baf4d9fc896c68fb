package engine

import (
	"context"
	"testing"

	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// prunedStrides drives the phased path of Algorithm 1 over the root group of
// a gen-shaped database the way scan does — one record fraction at a time,
// pruning between fractions while the pruner is active — and hands each
// stride's pruner state and pruning counters to check, with the stride's
// prune. It returns those counters and, for the same input, TopMaps' own.
func prunedStrides(t *testing.T, db string, mode Pruning, check func(phase int, p *pruner, res *Result, prune func())) (res, topMaps *Result) {
	t.Helper()
	data, err := gen.ByName(db, gen.Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(data)
	qe, group := rootGroup(t, data)
	keys := g.Candidates(qe, query.Description{})
	const kPrime = 3
	cfg := DefaultConfig()
	cfg.Pruning = mode
	p, err := newPruner(keys, kPrime, cfg.Pruning)
	if err != nil {
		t.Fatal(err)
	}
	acc := g.Builder.NewAccumulator(group.Desc, keys)
	seen := ratingmap.NewSeenSet()
	res = &Result{Profile: &Profile{}}
	n := len(group.Records)
	for phase := 0; phase < cfg.Phases-1 && p.active(); phase++ {
		lo, hi := phase*n/cfg.Phases, (phase+1)*n/cfg.Phases
		acc.Update(group.Records[lo:hi])
		check(phase, p, res, func() { p.prune(context.Background(), acc, seen, cfg, phase, hi, n, res) })
	}
	cfg.MinPhaseRecords = 1
	if topMaps, err = g.TopMapsCtx(context.Background(), group, keys, seen, kPrime, cfg); err != nil {
		t.Fatal(err)
	}
	return res, topMaps
}

// TestBanditDecidesOnlyLiveCandidates: under combined pruning every bandit
// decision of a stride lands on a candidate that is still accumulated. A
// stride spends its decision budget — ⌈(survivors after CI − k′) / phases
// left⌉ — unless the selection completes, and a decision that names a live
// candidate either prunes it (PrunedMAB) or fills at least one slot. So,
// short of completion, the stride's MAB prunes plus the slots it filled
// reach the budget; a decision on an arm CI already dropped would do
// neither.
func TestBanditDecidesOnlyLiveCandidates(t *testing.T) {
	for _, db := range []string{"yelp", "movielens", "hotels"} {
		res, topMaps := prunedStrides(t, db, PruneBoth, func(phase int, p *pruner, res *Result, prune func()) {
			alive, slots := len(p.alive), p.sar.RemainingSlots()
			ci, mab := res.PrunedCI, res.PrunedMAB
			prune()
			if res.Degraded {
				t.Fatalf("%s: stride %d degraded", db, phase)
			}
			phasesLeft := max(DefaultConfig().Phases-1-phase, 1)
			budget := (alive - (res.PrunedCI - ci) - p.kPrime + phasesLeft - 1) / phasesLeft
			spent := res.PrunedMAB - mab + slots - p.sar.RemainingSlots()
			if spent < budget && !p.sar.Done() {
				t.Errorf("%s: stride %d spent %d of its %d decisions on live candidates", db, phase, spent, budget)
			}
		})
		if res.PrunedCI != topMaps.PrunedCI || res.PrunedMAB != topMaps.PrunedMAB {
			t.Fatalf("%s: the strides pruned %d/%d (CI/MAB), TopMaps %d/%d", db, res.PrunedCI, res.PrunedMAB, topMaps.PrunedCI, topMaps.PrunedMAB)
		}
		if res.PrunedCI == 0 || res.PrunedMAB == 0 {
			t.Errorf("%s: pruned %d/%d (CI/MAB); both schemes must prune for the check to mean anything", db, res.PrunedCI, res.PrunedMAB)
		}
	}
}

// TestPruneAllocatesNothingAfterTheFirstStride: the pruner's buffers and the
// bandit's ranking are sized by the first stride, the largest, and every
// later stride works in them.
func TestPruneAllocatesNothingAfterTheFirstStride(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	res, _ := prunedStrides(t, "yelp", PruneBoth, func(phase int, _ *pruner, _ *Result, prune func()) {
		if phase == 0 {
			prune()
			return
		}
		// AllocsPerRun prunes twice, once to warm up and once measured.
		if allocs := testing.AllocsPerRun(1, prune); allocs != 0 {
			t.Errorf("stride %d: prune allocated %v times", phase, allocs)
		}
	})
	if res.PrunedMAB == 0 {
		t.Fatal("nothing was rejected, so the bandit's path was not measured")
	}
}
