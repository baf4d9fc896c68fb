package workload

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"

	"subdex/internal/core"
	"subdex/internal/obs"
	"subdex/internal/server"
)

// TestTraceparentRoundTrip pins the full correlation chain over a real
// HTTP hop: a trace ID installed client-side rides the traceparent
// header, the server binds its request span and EXPLAIN profile to it,
// and both /debug/spans?trace= and the flight-recorder ring resolve the
// same ID back to the step that carried it.
func TestTraceparentRoundTrip(t *testing.T) {
	ctx := context.Background()
	srv, ts := demoServer(t, server.Options{})
	hc, err := NewHTTPClient(ctx, ts.URL, nil, "rp", "")
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close(ctx)

	tid := obs.DeriveTraceID(42, 1, 1)
	sv, err := hc.Step(obs.WithTraceID(ctx, tid))
	if err != nil {
		t.Fatal(err)
	}
	if sv.TraceID != string(tid) {
		t.Fatalf("step trace ID: got %q, want %q", sv.TraceID, tid)
	}
	if sv.Profile == nil {
		t.Fatal("HTTP step returned no EXPLAIN profile")
	}
	if sv.Profile.TraceID != string(tid) {
		t.Fatalf("profile trace ID: got %q, want %q", sv.Profile.TraceID, tid)
	}
	if sv.Profile.Engine == nil {
		t.Fatal("EXPLAIN profile carries no engine profile")
	}

	// The server's span ring must resolve the ID to the request's span
	// tree (root span plus engine phase children).
	resp, err := http.Get(ts.URL + "/debug/spans?trace=" + string(tid))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/spans?trace=: status %d: %s", resp.StatusCode, body)
	}
	var spans struct {
		Spans []*obs.SpanData `json:"spans"`
	}
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("decode spans: %v", err)
	}
	if len(spans.Spans) != 1 {
		t.Fatalf("expected exactly the step's root span, got %d", len(spans.Spans))
	}
	if got := spans.Spans[0].TraceID; got != tid {
		t.Fatalf("root span trace ID: got %q, want %q", got, tid)
	}

	// The flight-recorder ring must hold the step's wide event under the
	// same ID (dumps are disabled — no Dir — but the ring always records).
	events := srv.Flight().Snapshot(string(tid), 0)
	if len(events) != 1 {
		t.Fatalf("expected one wide event under trace %s, got %d", tid, len(events))
	}
	if op, _ := events[0].Get("op"); op != "step" {
		t.Fatalf("wide event op: got %v, want step", op)
	}
}

// traceKey identifies one step-producing call independent of timing.
type traceKey struct {
	User  int
	Step  int
	Op    string
	Trace string
}

// traceKeys collapses a population's exemplars (captured with K large
// enough to retain every call) into a sorted, duration-free key set.
func traceKeys(res *Result) []traceKey {
	var keys []traceKey
	for _, u := range res.Users {
		for _, e := range u.Exemplars {
			keys = append(keys, traceKey{User: e.User, Step: e.Step, Op: e.Op, Trace: e.TraceID})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].User != keys[j].User {
			return keys[i].User < keys[j].User
		}
		return keys[i].Step < keys[j].Step
	})
	return keys
}

// TestEquivalenceTraceIDs re-runs the two-arm equivalence walk and
// requires the derived trace IDs to match call for call: the same seed
// labels the same steps with the same IDs whether the client is
// in-process or behind HTTP, which is what makes sdeload exemplars
// resolvable against a server regardless of mode. It also re-checks the
// golden records stay byte-identical with tracing and exemplars on.
func TestEquivalenceTraceIDs(t *testing.T) {
	ex, err := core.NewExplorer(demoDB(t), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Users: 2, Seed: 11, StepsPerUser: 5, Record: true, ExemplarK: 1 << 20}
	inproc := runPopulation(t, cfg, InprocFactory(ex, core.RecommendationPowered, ""))
	_, ts := demoServer(t, server.Options{})
	httpRes := runPopulation(t, cfg, HTTPFactory(ts.URL, nil, core.RecommendationPowered, ""))
	compareUsers(t, inproc, httpRes)

	ik, hk := traceKeys(inproc), traceKeys(httpRes)
	if len(ik) == 0 {
		t.Fatal("no exemplars captured")
	}
	if fmt.Sprint(ik) != fmt.Sprint(hk) {
		t.Fatalf("trace keys diverge between modes:\n  inproc=%v\n  http=%v", ik, hk)
	}
	for _, k := range ik {
		if !obs.TraceID(k.Trace).Valid() {
			t.Fatalf("derived trace ID %q is not valid", k.Trace)
		}
	}

	// Exemplars must surface EXPLAIN profiles in both modes.
	for name, res := range map[string]*Result{"inproc": inproc, "http": httpRes} {
		for _, u := range res.Users {
			for _, e := range u.Exemplars {
				if e.Profile == nil {
					t.Fatalf("%s: user %d step %d exemplar has no profile", name, e.User, e.Step)
				}
			}
		}
	}
}

// TestClientFlightEvents wires a client-side flight recorder through the
// runner config and requires one wide event per step-producing call,
// carrying the field set the obsmetrics discipline expects.
func TestClientFlightEvents(t *testing.T) {
	ex, err := core.NewExplorer(demoDB(t), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fr := obs.NewFlightRecorder(obs.FlightOptions{Ring: 1024})
	cfg := Config{Users: 2, Seed: 5, StepsPerUser: 4, Flight: fr}
	res := runPopulation(t, cfg, InprocFactory(ex, core.RecommendationPowered, ""))
	events := fr.Snapshot("", 0)
	if len(events) == 0 {
		t.Fatal("no client wide events recorded")
	}
	if len(events) > res.Steps {
		t.Fatalf("more wide events (%d) than steps (%d): auto bursts must record once", len(events), res.Steps)
	}
	for _, ev := range events {
		for _, key := range []string{"op", "user", "step", "trace_id", "duration_ms", "degraded", "ts"} {
			if _, ok := ev.Get(key); !ok {
				t.Fatalf("client wide event missing %q", key)
			}
		}
	}
}
