package core

import (
	"slices"
	"strings"
	"testing"

	"subdex/internal/obs"
	"subdex/internal/query"
)

// exposition renders every series of r, values included.
func exposition(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// stepDigests runs one Recommendation-Powered step from the whole
// database and returns its maps' digests.
func stepDigests(t *testing.T, ex *Explorer) []string {
	t.Helper()
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	return res.Digests
}

// TestInstrumentNilDetaches pins that Instrument(nil) detaches what an
// earlier Instrument(reg) attached: a step afterwards moves none of reg's
// engine or core families, and shows the maps an explorer that was never
// instrumented shows. Attaching reg again makes the same step move it, so
// the comparison is not vacuous.
func TestInstrumentNilDetaches(t *testing.T) {
	reg := obs.NewRegistry()
	ex := coreExplorer(t)
	ex.Instrument(reg)
	ex.Instrument(nil)
	before := exposition(t, reg)
	for _, family := range []string{"subdex_engine_candidates_total", "subdex_engine_phase_duration_seconds",
		"subdex_sessions_started_total", "subdex_step_duration_seconds", "subdex_recommendation_candidates_total"} {
		if !strings.Contains(before, "# TYPE "+family+" ") {
			t.Fatalf("%s is not registered on reg", family)
		}
	}

	got := stepDigests(t, ex)
	if after := exposition(t, reg); after != before {
		t.Errorf("a detached step moved reg:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if want := stepDigests(t, coreExplorer(t)); !slices.Equal(got, want) {
		t.Errorf("detached digests %v, uninstrumented %v", got, want)
	}

	ex.Instrument(reg)
	stepDigests(t, ex)
	if exposition(t, reg) == before {
		t.Error("a step on an attached explorer moved nothing")
	}
}
