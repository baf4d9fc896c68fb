package cluster

import (
	"context"
	"net/http/httptest"
	"testing"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// testCluster boots nodes in-process worker servers over db plus a
// coordinator wired to them, all torn down with the test.
func testCluster(t testing.TB, db *dataset.DB, nodes int, ccfg CoordinatorConfig,
	wopts WorkerOptions) *Coordinator {
	t.Helper()
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		wex, err := core.NewExplorer(db, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewWorker(wex, wopts).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	ccfg.Workers = urls
	if ccfg.HealthInterval == 0 {
		ccfg.HealthInterval = -1 // no background probes unless a test wants them
	}
	if ccfg.LocalThreshold == 0 {
		ccfg.LocalThreshold = -1 // force every scan through the workers
	}
	coord, err := NewCoordinator(context.Background(), db, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// buildDB materializes one generated dataset.
func buildDB(t testing.TB, build func(gen.Config) (*dataset.DB, error), cfg gen.Config) *dataset.DB {
	t.Helper()
	db, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// allKeys enumerates every candidate over the whole-database group.
func allKeys(t testing.TB, db *dataset.DB) (*query.RatingGroup, []ratingmap.Key) {
	t.Helper()
	qe, err := query.NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	group, err := qe.Materialize(query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	g := engine.NewGenerator(db)
	return group, g.Candidates(qe, query.Description{})
}

// bindTestFingerprint arms coord with the fingerprint of a plain
// explorer over db — what core.NewExplorer does when the coordinator is
// installed via Config.Scanner.
func bindTestFingerprint(t testing.TB, coord *Coordinator, db *dataset.DB) {
	t.Helper()
	ex, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	coord.BindFingerprint(ex.Fingerprint())
}

// TestDifferentialClusterMatrix is the headline proof: distributed
// TopMaps digests must be byte-identical to single-node across datasets
// × partition counts × worker counts, on the unphased and the phased
// path, including 1-partition and more-partitions-than-records edges.
func TestDifferentialClusterMatrix(t *testing.T) {
	datasets := []struct {
		name  string
		build func(gen.Config) (*dataset.DB, error)
		cfg   gen.Config
	}{
		{"demo", gen.Demo, gen.Config{Seed: 1, Scale: 1}},
		{"demo-reseed", gen.Demo, gen.Config{Seed: 5, Scale: 0.6}},
		{"yelp", gen.Yelp, gen.Config{Seed: 3, Scale: 0.01}},
		{"hotels", gen.Hotels, gen.Config{Seed: 2, Scale: 0.01}},
	}
	for _, ds := range datasets {
		ds := ds
		t.Run(ds.name, func(t *testing.T) {
			t.Parallel()
			db := buildDB(t, ds.build, ds.cfg)
			group, keys := allKeys(t, db)

			runLocal := func(cfg engine.Config) *engine.Result {
				res, err := engine.NewGenerator(db).TopMaps(group, keys, ratingmap.NewSeenSet(), 6, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			exact := engine.DefaultConfig()
			exact.Pruning = engine.PruneNone
			phased := engine.DefaultConfig()
			phased.Pruning = engine.PruneBoth
			phased.Phases = 4
			phased.MinPhaseRecords = 1
			localExact, localPhased := runLocal(exact), runLocal(phased)

			for _, nodes := range []int{1, 2, 3} {
				for _, parts := range []int{1, 2, 3, 7, len(group.Records) + 50} {
					coord := testCluster(t, db, nodes, CoordinatorConfig{Partitions: parts}, WorkerOptions{})
					bindTestFingerprint(t, coord, db)
					g := engine.NewGenerator(db)
					g.Scanner = coord
					for name, want := range map[string]*engine.Result{"exact": localExact, "phased": localPhased} {
						cfg := exact
						if name == "phased" {
							cfg = phased
						}
						got, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 6, cfg)
						if err != nil {
							t.Fatalf("nodes=%d parts=%d %s: %v", nodes, parts, name, err)
						}
						if got.Degraded {
							t.Fatalf("nodes=%d parts=%d %s: degraded without faults", nodes, parts, name)
						}
						if ratingmap.DigestMaps(got.Maps) != ratingmap.DigestMaps(want.Maps) {
							t.Fatalf("nodes=%d parts=%d %s: distributed digests diverge from single-node", nodes, parts, name)
						}
						if got.RecordsProcessed != want.RecordsProcessed {
							t.Fatalf("nodes=%d parts=%d %s: records %d vs %d", nodes, parts, name,
								got.RecordsProcessed, want.RecordsProcessed)
						}
						for i := range want.Utilities {
							if got.Utilities[i] != want.Utilities[i] {
								t.Fatalf("nodes=%d parts=%d %s: utility[%d] %g vs %g", nodes, parts, name,
									i, got.Utilities[i], want.Utilities[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestDifferentialTinyGroups drives the more-partitions-than-records
// edge explicitly: groups of 0–3 records scanned with 64 requested
// partitions must clamp, not crash, and stay exact.
func TestDifferentialTinyGroups(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 9, Scale: 1})
	group, keys := allKeys(t, db)
	coord := testCluster(t, db, 3, CoordinatorConfig{Partitions: 64}, WorkerOptions{})
	bindTestFingerprint(t, coord, db)
	gDist := engine.NewGenerator(db)
	gDist.Scanner = coord
	gLocal := engine.NewGenerator(db)
	cfg := engine.DefaultConfig()
	cfg.Pruning = engine.PruneNone

	for _, n := range []int{1, 2, 3} {
		tiny := &query.RatingGroup{Desc: group.Desc, Records: group.Records[:n]}
		got, err := gDist.TopMaps(tiny, keys, ratingmap.NewSeenSet(), 6, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := gLocal.TopMaps(tiny, keys, ratingmap.NewSeenSet(), 6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ratingmap.DigestMaps(got.Maps) != ratingmap.DigestMaps(want.Maps) {
			t.Fatalf("n=%d: digests diverge", n)
		}
		if got.RecordsProcessed != n {
			t.Fatalf("n=%d: RecordsProcessed = %d", n, got.RecordsProcessed)
		}
	}
	// A zero-record range is a no-op, not an RPC.
	empty := &query.RatingGroup{Desc: group.Desc, Records: nil}
	if res, err := gDist.TopMaps(empty, keys, ratingmap.NewSeenSet(), 6, cfg); err != nil || res.RecordsProcessed != 0 {
		t.Fatalf("empty group: res=%+v err=%v", res, err)
	}
}

// TestDifferentialExplorerEndToEnd runs whole exploration steps (group
// materialization, generation, diversity selection, recommendations)
// through a coordinator-backed explorer and compares against a plain
// one — the integration the golden-trace suite then locks byte-for-byte.
func TestDifferentialExplorerEndToEnd(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 1, Scale: 1})
	coord := testCluster(t, db, 3, CoordinatorConfig{}, WorkerOptions{})

	cfg := core.DefaultConfig()
	cfg.Scanner = coord
	dist, err := core.NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dist.Fingerprint() != local.Fingerprint() {
		t.Fatalf("scanner changed the fingerprint: %s vs %s — it must stay a scheduling knob",
			dist.Fingerprint(), local.Fingerprint())
	}
	sd, err := core.NewSession(dist, core.RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	sl, err := core.NewSession(local, core.RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		rd, err := sd.Step()
		if err != nil {
			t.Fatalf("step %d (distributed): %v", step, err)
		}
		rl, err := sl.Step()
		if err != nil {
			t.Fatalf("step %d (local): %v", step, err)
		}
		if ratingmap.DigestMaps(rd.Maps) != ratingmap.DigestMaps(rl.Maps) {
			t.Fatalf("step %d: map digests diverge", step)
		}
		if len(rd.Recommendations) != len(rl.Recommendations) {
			t.Fatalf("step %d: recommendation counts diverge", step)
		}
		for i := range rl.Recommendations {
			if rd.Recommendations[i].Op.String() != rl.Recommendations[i].Op.String() {
				t.Fatalf("step %d: recommendation %d diverges", step, i)
			}
		}
		if len(rd.Recommendations) > 0 {
			if err := sd.ApplyRecommendation(0); err != nil {
				t.Fatal(err)
			}
			if err := sl.ApplyRecommendation(0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScanRangeGuards pins the hard-error surface: unbound fingerprint
// and out-of-range scans fail, they never degrade.
func TestScanRangeGuards(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 1, Scale: 1})
	group, keys := allKeys(t, db)
	coord := testCluster(t, db, 1, CoordinatorConfig{}, WorkerOptions{})

	if _, err := coord.ScanRange(context.Background(), group, keys, 0, len(group.Records)); err == nil {
		t.Fatal("unbound fingerprint accepted")
	}
	bindTestFingerprint(t, coord, db)
	if _, err := coord.ScanRange(context.Background(), group, keys, 0, len(group.Records)+1); err == nil {
		t.Fatal("out-of-range scan accepted")
	}
	if _, err := coord.ScanRange(context.Background(), group, keys, -1, 0); err == nil {
		t.Fatal("negative lo accepted")
	}
}

// TestFingerprintGuard wires a worker with different engine config: the
// coordinator must refuse its frames and (with no other worker) lose
// the partition rather than merge incompatible state.
func TestFingerprintGuard(t *testing.T) {
	db := buildDB(t, gen.Demo, gen.Config{Seed: 1, Scale: 1})
	group, keys := allKeys(t, db)

	// Worker runs k=9: result-affecting, so its fingerprint differs.
	cfg := core.DefaultConfig()
	cfg.K = 9
	wex, err := core.NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWorker(wex, WorkerOptions{}).Handler())
	defer srv.Close()
	coord, err := NewCoordinator(context.Background(), db, CoordinatorConfig{
		Workers: []string{srv.URL}, HealthInterval: -1, LocalThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	bindTestFingerprint(t, coord, db)

	rs, err := coord.ScanRange(context.Background(), group, keys, 0, len(group.Records))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Lost != rs.Partitions || rs.Lost == 0 {
		t.Fatalf("mixed-version worker served a scan: lost %d of %d partitions", rs.Lost, rs.Partitions)
	}
}
