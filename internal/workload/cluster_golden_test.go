package workload

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subdex/internal/cluster"
	"subdex/internal/core"
)

// TestGoldenTracesDistributed is the cluster's golden-equivalence lock:
// the exact pinned walks of TestGoldenTraces, rerun through a 3-worker
// coordinator-backed explorer, must serialize byte-identically to the
// same checked-in testdata/golden files. No cluster-specific goldens
// exist on purpose — distribution is a scheduling choice, not a result
// change, and this test is what enforces that.
func TestGoldenTracesDistributed(t *testing.T) {
	const nodes = 3
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			db, err := gc.build(gc.cfg)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			urls := make([]string, nodes)
			for i := 0; i < nodes; i++ {
				wex, err := core.NewExplorer(db, core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(cluster.NewWorker(wex, cluster.WorkerOptions{}).Handler())
				t.Cleanup(srv.Close)
				urls[i] = srv.URL
			}
			coord, err := cluster.NewCoordinator(context.Background(), db, cluster.CoordinatorConfig{
				Workers:        urls,
				HealthInterval: -1,
				LocalThreshold: -1, // every scan takes the distributed path
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(coord.Close)

			cfg := core.DefaultConfig()
			cfg.Scanner = coord
			ex, err := core.NewExplorer(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), Config{
				Users:  1,
				Seed:   7,
				Record: true,
			}, InprocFactory(ex, core.RecommendationPowered, ""))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			u := res.Users[0]
			if u.Failure != "" {
				t.Fatalf("user failed: %s", u.Failure)
			}
			got, err := MarshalGolden(u.Records)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			path := filepath.Join("testdata", "golden", gc.name+".jsonl")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (generate with TestGoldenTraces -update): %v", err)
			}
			if bytes.Equal(want, got) {
				return
			}
			wantRecs, err := ReadGolden(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("distributed trace diverged and the checked-in file is unparseable: %v", err)
			}
			diffs := DiffRecords(wantRecs, u.Records)
			if len(diffs) == 0 {
				diffs = []string{"(byte-level difference only: whitespace or field ordering)"}
			}
			const limit = 24
			if len(diffs) > limit {
				diffs = append(diffs[:limit], fmt.Sprintf("... and %d more", len(diffs)-limit))
			}
			t.Errorf("distributed walk diverged from single-node golden (%s):\n  %s",
				path, strings.Join(diffs, "\n  "))
		})
	}
}
