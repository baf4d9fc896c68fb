package workload

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/server"
)

// demoDB builds the demo dataset at test scale, fresh per call so the
// two arms of an equivalence test share no state at all.
func demoDB(t *testing.T) *dataset.DB {
	t.Helper()
	db, err := gen.Demo(gen.Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatalf("demo dataset: %v", err)
	}
	return db
}

// demoServer starts an httptest server over a fresh demo explorer.
func demoServer(t *testing.T, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.NewWithOptions(demoDB(t), core.DefaultConfig(), opts)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts
}

// runPopulation executes one recording population and fails on any
// terminal error.
func runPopulation(t *testing.T, cfg Config, factory ClientFactory) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg, factory)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if fails := res.Failures(); len(fails) != 0 {
		t.Fatalf("population had terminal failures: %v", fails)
	}
	if res.Errors.Total() != 0 {
		t.Fatalf("population observed errors: %+v", res.Errors)
	}
	return res
}

// compareUsers asserts each user's recorded walk is byte-identical
// across the two arms and their summaries are equal.
func compareUsers(t *testing.T, inproc, http *Result) {
	t.Helper()
	if len(inproc.Users) != len(http.Users) {
		t.Fatalf("population size: inproc %d, http %d", len(inproc.Users), len(http.Users))
	}
	for i := range inproc.Users {
		a, b := inproc.Users[i], http.Users[i]
		if a.Steps == 0 {
			t.Errorf("user %d: inproc walk executed no steps", i)
			continue
		}
		ab, err := MarshalGolden(a.Records)
		if err != nil {
			t.Fatalf("user %d: marshal inproc: %v", i, err)
		}
		bb, err := MarshalGolden(b.Records)
		if err != nil {
			t.Fatalf("user %d: marshal http: %v", i, err)
		}
		if !bytes.Equal(ab, bb) {
			diffs := DiffRecords(a.Records, b.Records)
			if len(diffs) > 12 {
				diffs = append(diffs[:12], fmt.Sprintf("... and %d more", len(diffs)-12))
			}
			t.Errorf("user %d: traces diverge between modes:\n  inproc=%d bytes http=%d bytes\n  %s",
				i, len(ab), len(bb), diffs)
			continue
		}
		if a.Summary == nil || b.Summary == nil {
			t.Errorf("user %d: missing summary (inproc=%v http=%v)", i, a.Summary != nil, b.Summary != nil)
			continue
		}
		if !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("user %d: summaries diverge:\n  inproc=%+v\n  http=%+v", i, a.Summary, b.Summary)
		}
	}
}

// TestEquivalenceSingleUser drives the same seeded walk once in-process
// and once over the HTTP API and requires byte-identical golden records
// (including every per-step map digest) and identical path summaries.
func TestEquivalenceSingleUser(t *testing.T) {
	ex, err := core.NewExplorer(demoDB(t), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Users: 1, Seed: 7, Record: true}
	inproc := runPopulation(t, cfg, InprocFactory(ex, core.RecommendationPowered, ""))
	_, ts := demoServer(t, server.Options{})
	http := runPopulation(t, cfg, HTTPFactory(ts.URL, nil, core.RecommendationPowered, ""))
	compareUsers(t, inproc, http)
}

// TestEquivalenceModesAndPredicates sweeps modes and a starting
// predicate. User-driven sessions have no recommendations, so the walk
// exercises the drill/back arms only — still byte-comparable.
func TestEquivalenceModesAndPredicates(t *testing.T) {
	cases := []struct {
		name      string
		mode      core.Mode
		predicate string
	}{
		{"user_driven", core.UserDriven, ""},
		{"fully_automated", core.FullyAutomated, ""},
		{"predicate_start", core.RecommendationPowered, "items.roast='dark'"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ex, err := core.NewExplorer(demoDB(t), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Users: 2, Seed: 21, StepsPerUser: 5, Record: true}
			inproc := runPopulation(t, cfg, InprocFactory(ex, tc.mode, tc.predicate))
			_, ts := demoServer(t, server.Options{})
			http := runPopulation(t, cfg, HTTPFactory(ts.URL, nil, tc.mode, tc.predicate))
			compareUsers(t, inproc, http)
		})
	}
}

// TestEquivalenceConcurrent32 runs 32 concurrent simulated users in both
// modes and requires every user's walk to be byte-identical across them.
// All 32 in-process sessions share one explorer (and so its caches);
// the 32 HTTP sessions share the server's explorer — the test therefore
// also re-proves that cache sharing and goroutine interleaving never
// perturb a seeded path. CI runs this package under -race.
func TestEquivalenceConcurrent32(t *testing.T) {
	ex, err := core.NewExplorer(demoDB(t), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Users: 32, Seed: 3, StepsPerUser: 4, Record: true}
	inproc := runPopulation(t, cfg, InprocFactory(ex, core.RecommendationPowered, ""))
	_, ts := demoServer(t, server.Options{})
	http := runPopulation(t, cfg, HTTPFactory(ts.URL, nil, core.RecommendationPowered, ""))
	if got := len(http.Users); got != 32 {
		t.Fatalf("expected 32 users, got %d", got)
	}
	if inproc.Steps == 0 || http.Steps != inproc.Steps {
		t.Fatalf("step totals diverge: inproc %d, http %d", inproc.Steps, http.Steps)
	}
	compareUsers(t, inproc, http)
}

// TestHTTPBackEmptyHistory pins the 409 "history empty" mapping: Back on
// a fresh session reports (false, nil) in both modes rather than an
// error, so mixed walks never terminate on a legal no-op.
func TestHTTPBackEmptyHistory(t *testing.T) {
	ctx := context.Background()
	_, ts := demoServer(t, server.Options{})
	hc, err := NewHTTPClient(ctx, ts.URL, nil, "rp", "")
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close(ctx)
	if _, err := hc.Step(ctx); err != nil {
		t.Fatal(err)
	}
	moved, err := hc.Back(ctx)
	if err != nil {
		t.Fatalf("Back on empty history: %v", err)
	}
	if moved {
		t.Fatal("Back on empty history reported movement")
	}
}

// TestHTTPAdmissionClassified pins the 429 admission path: a population
// larger than the session cap ends with Admission-classified errors,
// never terminal failures.
func TestHTTPAdmissionClassified(t *testing.T) {
	_, ts := demoServer(t, server.Options{MaxSessions: 2})
	res, err := Run(context.Background(),
		Config{Users: 5, Seed: 9, StepsPerUser: 2},
		HTTPFactory(ts.URL, nil, core.RecommendationPowered, ""))
	if err != nil {
		t.Fatal(err)
	}
	if fails := res.Failures(); len(fails) != 0 {
		t.Fatalf("admission rejections must not be terminal: %v", fails)
	}
	if res.Errors.Admission == 0 {
		t.Fatalf("expected 429 admission rejections, got %+v", res.Errors)
	}
}
