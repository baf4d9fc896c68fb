package workload

import (
	"context"
	"reflect"
	"testing"

	"subdex/internal/core"
)

// TestAutoBurstIsAutoCtx holds the harness's one auto-pilot loop to the
// paper's: from the same start, an in-process burst of m steps must
// commit the same session op log as core.Session.AutoCtx(m) and display
// maps with the same digests, step for step.
func TestAutoBurstIsAutoCtx(t *testing.T) {
	ctx := context.Background()
	for _, gc := range goldenCases() {
		if gc.name != "demo" && gc.name != "yelp" {
			continue
		}
		db, err := gc.build(gc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := core.NewExplorer(db, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 3; m++ {
			c, err := NewInprocClient(ex, core.RecommendationPowered, "")
			if err != nil {
				t.Fatal(err)
			}
			views, err := autoBurst(ctx, c, m)
			if err != nil {
				t.Fatalf("%s m=%d: burst: %v", gc.name, m, err)
			}
			root, err := ex.ParseDescription("TRUE")
			if err != nil {
				t.Fatal(err)
			}
			sess, err := core.NewSession(ex, core.RecommendationPowered, root)
			if err != nil {
				t.Fatal(err)
			}
			steps, err := sess.AutoCtx(ctx, m)
			if err != nil {
				t.Fatalf("%s m=%d: AutoCtx: %v", gc.name, m, err)
			}
			if got, want := c.Session().Snapshot().Ops, sess.Snapshot().Ops; !reflect.DeepEqual(got, want) {
				t.Errorf("%s m=%d: op logs differ:\n  burst   %+v\n  AutoCtx %+v", gc.name, m, got, want)
			}
			if len(views) != len(steps) {
				t.Fatalf("%s m=%d: burst displayed %d steps, AutoCtx %d", gc.name, m, len(views), len(steps))
			}
			for i, sv := range views {
				var got []string
				for _, mv := range sv.Maps {
					got = append(got, mv.Digest)
				}
				if want := steps[i].Digests; !reflect.DeepEqual(got, want) {
					t.Errorf("%s m=%d step %d: digests %v, AutoCtx %v", gc.name, m, i+1, got, want)
				}
			}
		}
	}
}
