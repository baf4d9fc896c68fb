package engine

import (
	"context"
	"math/rand"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/ratingmap"
)

// TestUnifiedLoop drives every shape the one phase loop takes — a single
// stride, pruning active to the last boundary, pruning that stops early
// because the survivors fit in k′, and a cache hit that skips the loop —
// through both the local sharded scan and a RangeScanner, and asserts what
// must hold for all of them: one Profile.Phases row and one PhaseHook call
// per executed stride, rows summing to RecordsScanned, and maps equal to
// the exact oracle (Builder.Build over the whole group).
//
// Bandit pruning with k′ = 1 is deterministic — the top gap can never
// exceed the bottom gap, so every decision rejects the lowest arm — which
// makes "how many boundaries prune" a function of (candidates, phases):
// four candidates lose one per boundary and are down to one after three.
func TestUnifiedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := buildRandomDB(t, rng, 30, 25, 2000)
	group := wholeGroup(t, db)
	keys := allCandidates(db)[:4]
	n := len(group.Records)

	rows := []struct {
		name    string
		pruning Pruning
		phases  int
		warm    bool // serve the measured call from the cache
		strides int
		pruned  int
		alive   []int // Alive per row
	}{
		{name: "unphased", pruning: PruneNone, phases: 10, strides: 1, alive: []int{4}},
		{name: "phased to the last stride", pruning: PruneMAB, phases: 4, strides: 4, pruned: 3, alive: []int{3, 2, 1, 1}},
		{name: "pruning stops early", pruning: PruneMAB, phases: 10, strides: 10, pruned: 3,
			alive: []int{3, 2, 1, 1, 1, 1, 1, 1, 1, 1}},
		{name: "cache hit", pruning: PruneNone, phases: 10, warm: true, strides: 0},
	}
	for _, row := range rows {
		for _, remote := range []bool{false, true} {
			name := row.name + "/local"
			if remote {
				name = row.name + "/scanner"
			}
			t.Run(name, func(t *testing.T) {
				g := NewGenerator(db)
				g.Cache = NewTopMapsCache(1 << 20)
				var scanner *fakeScanner
				if remote {
					scanner = &fakeScanner{g: NewGenerator(db), parts: 3, loseCall: -1}
					g.Scanner = scanner
				}
				cfg := DefaultConfig()
				cfg.Pruning, cfg.Phases, cfg.MinPhaseRecords = row.pruning, row.phases, 1
				if row.warm {
					if _, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 1, cfg); err != nil {
						t.Fatal(err)
					}
				}
				scansBefore := 0
				if remote {
					scansBefore = scanner.calls
				}
				hooks := 0
				cfg.PhaseHook = func(context.Context, int) { hooks++ }
				res, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 1, cfg)
				if err != nil {
					t.Fatal(err)
				}
				prof := res.Profile

				if res.Degraded || res.RecordsProcessed != n {
					t.Fatalf("degraded=%v RecordsProcessed=%d, want a complete scan of %d", res.Degraded, res.RecordsProcessed, n)
				}
				if len(prof.Phases) != row.strides {
					t.Fatalf("%d Phases rows, want %d: %+v", len(prof.Phases), row.strides, prof.Phases)
				}
				sum := 0
				for i, ph := range prof.Phases {
					sum += ph.Records
					if ph.Alive != row.alive[i] {
						t.Errorf("row %d: Alive = %d, want %d", i, ph.Alive, row.alive[i])
					}
				}
				if sum != prof.RecordsScanned {
					t.Errorf("Σ Phases[].Records = %d, RecordsScanned = %d", sum, prof.RecordsScanned)
				}
				if res.PrunedMAB != row.pruned || res.PrunedCI != 0 {
					t.Errorf("pruned ci=%d mab=%d, want 0 and %d", res.PrunedCI, res.PrunedMAB, row.pruned)
				}
				if prof.Phased != (row.pruning != PruneNone) {
					t.Errorf("Phased = %v under %v", prof.Phased, row.pruning)
				}
				if row.warm {
					// A hit scans nothing; the hook still fires once, before it is served.
					if prof.Cache != "hit" || prof.RecordsScanned != 0 || hooks != 1 {
						t.Errorf("cache=%q scanned=%d hooks=%d, want hit, 0, 1", prof.Cache, prof.RecordsScanned, hooks)
					}
				} else if hooks != row.strides || prof.RecordsScanned != n {
					t.Errorf("hooks=%d scanned=%d, want %d and %d", hooks, prof.RecordsScanned, row.strides, n)
				}
				if remote && scanner.calls-scansBefore != row.strides {
					t.Errorf("%d ScanRange calls, want one per stride (%d)", scanner.calls-scansBefore, row.strides)
				}
				// Only a complete unpruned scan may be in the cache.
				wantEntries := 0
				if row.pruning == PruneNone {
					wantEntries = 1
				}
				if st := g.Cache.Stats(); st.Entries != wantEntries {
					t.Errorf("cache holds %d entries, want %d", st.Entries, wantEntries)
				}
				assertExact(t, db, group.Records, res)
			})
		}
	}
}

// TestDeadlineOnPostPruningStride injects a deadline on a stride that runs
// after pruning has stopped (survivors ≤ k′): the call degrades with
// RecordsProcessed at that stride's boundary — the behaviour
// "deadline_mid_tail_scan" used to name, now reported like any other
// boundary — and the answer equals an honest scan of that prefix.
func TestDeadlineOnPostPruningStride(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := buildRandomDB(t, rng, 30, 25, 2000)
	group := wholeGroup(t, db)
	keys := allCandidates(db)[:4]
	n := len(group.Records)
	const cancelAt = 6 // pruning ends after stride 2

	for _, remote := range []bool{false, true} {
		g := NewGenerator(db)
		if remote {
			g.Scanner = &fakeScanner{g: NewGenerator(db), parts: 3, loseCall: -1}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig()
		cfg.Pruning, cfg.Phases, cfg.MinPhaseRecords = PruneMAB, 10, 1
		cfg.PhaseHook = func(_ context.Context, phase int) {
			if phase == cancelAt {
				cancel()
			}
		}
		res, err := g.TopMapsCtx(ctx, group, keys, ratingmap.NewSeenSet(), 1, cfg)
		cancel()
		if err != nil {
			t.Fatalf("remote=%v: %v", remote, err)
		}
		want := cancelAt * n / cfg.Phases
		if !res.Degraded || res.RecordsProcessed != want {
			t.Fatalf("remote=%v: degraded=%v RecordsProcessed=%d, want true and %d", remote, res.Degraded, res.RecordsProcessed, want)
		}
		if got := res.Profile.DegradedReason; got != "deadline_at_phase_boundary" {
			t.Errorf("remote=%v: DegradedReason = %q", remote, got)
		}
		if len(res.Profile.Phases) != cancelAt || res.PrunedMAB != 3 {
			t.Errorf("remote=%v: %d strides, %d pruned; want %d and 3", remote, len(res.Profile.Phases), res.PrunedMAB, cancelAt)
		}
		assertExact(t, db, group.Records[:want], res)
	}
}

// assertExact checks every returned map against Builder.Build over records.
func assertExact(t *testing.T, db *dataset.DB, records []int32, res *Result) {
	t.Helper()
	if len(res.Maps) == 0 {
		t.Fatal("no maps returned")
	}
	b := ratingmap.Builder{DB: db}
	for _, rm := range res.Maps {
		if exact := b.Build(rm.Desc, records, []ratingmap.Key{rm.Key})[0]; exact.Digest() != rm.Digest() {
			t.Errorf("map %v differs from Builder.Build over %d records", rm.Key, len(records))
		}
	}
}
