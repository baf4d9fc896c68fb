package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/sessionstore"
)

// durableServer builds a server over an explicit store. Every call uses
// the same dataset and config (via testServerWith/lightConfig) — restart
// tests depend on the engine fingerprint matching across instances.
func durableServer(t *testing.T, store sessionstore.Store, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Store = store
	return testServerWith(t, lightConfig(), opts)
}

// tempStore opens a FileStore, the store the server ships, in a
// directory of its own and closes it when the test ends — after the
// servers the test builds on it, whose cleanups run first.
func tempStore(t *testing.T) *sessionstore.FileStore {
	t.Helper()
	store, err := sessionstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// stepBody GETs a step and returns its decoded payload.
func stepBody(t *testing.T, ts *httptest.Server, id int, query string) (int, StepJSON) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/sessions/%d/step%s", ts.URL, id, query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sj StepJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sj); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sj
}

// summarySteps reads the session summary's step count.
func summarySteps(t *testing.T, ts *httptest.Server, id int) int {
	t.Helper()
	var sum map[string]any
	resp := getJSON(t, fmt.Sprintf("%s/sessions/%d/summary", ts.URL, id), &sum)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: %d", resp.StatusCode)
	}
	return int(sum["steps"].(float64))
}

// TestDurableLifecyclePersisted pins log-before-respond: every answered
// mutation is in the store by the time the response is read, and
// rejected requests are never logged.
func TestDurableLifecyclePersisted(t *testing.T) {
	store := tempStore(t)
	_, ts := durableServer(t, store, Options{})

	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))
	if snap, ok, _ := store.Get(id); !ok || len(snap.Ops) != 0 {
		t.Fatalf("create not persisted: ok=%t %+v", ok, snap)
	}

	if code, _ := stepBody(t, ts, id, ""); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	applyURL := fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id)
	resp, _ := postJSON(t, applyURL, map[string]any{"predicate": "reviewers.gender = 'female'"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, applyURL, map[string]any{"back": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("back: %d", resp.StatusCode)
	}

	snap, ok, _ := store.Get(id)
	if !ok || len(snap.Ops) != 3 {
		t.Fatalf("persisted ops: ok=%t n=%d", ok, len(snap.Ops))
	}
	want := []core.OpKind{core.OpStep, core.OpApply, core.OpBack}
	for i, k := range want {
		if snap.Ops[i].Kind != k {
			t.Errorf("op %d kind = %s, want %s", i, snap.Ops[i].Kind, k)
		}
	}
	if len(snap.Ops[0].Digests) == 0 {
		t.Error("step op must carry map digests")
	}

	// A Back on empty history answers 409 and must NOT be logged.
	resp, _ = postJSON(t, applyURL, map[string]any{"back": true})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second back: %d, want 409", resp.StatusCode)
	}
	if snap, _, _ := store.Get(id); len(snap.Ops) != 3 {
		t.Errorf("rejected op was logged: %d ops", len(snap.Ops))
	}

	// DELETE persists too.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, id), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	if _, ok, _ := store.Get(id); ok {
		t.Error("delete not persisted")
	}
}

// TestRestartResume is the recovery contract over a real file-backed WAL:
// a second server over the same directory resumes the surviving session
// exactly, keeps a deleted session deleted, and never re-issues an id.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	store1, err := sessionstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := durableServer(t, store1, Options{})

	_, created := postJSON(t, ts1.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))
	if code, _ := stepBody(t, ts1, id, ""); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	resp, _ := postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts1.URL, id),
		map[string]any{"recommendation": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply recommendation: %d", resp.StatusCode)
	}
	steps1 := summarySteps(t, ts1, id)
	// Leave a second, deleted session behind: it must stay deleted.
	_, created2 := postJSON(t, ts1.URL+"/sessions", map[string]string{"mode": "ud"})
	id2 := int(created2["id"].(float64))
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts1.URL, id2), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	ts1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := sessionstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	_, ts2 := durableServer(t, store2, Options{})
	text := metricsText(t, ts2)
	if !strings.Contains(text, "subdex_sessions_recovered_total 1") {
		t.Errorf("recovered counter:\n%s", grepMetric(text, "recovered"))
	}

	if got := summarySteps(t, ts2, id); got != steps1 {
		t.Errorf("resume lost steps: before %d, after %d", steps1, got)
	}
	// The recovered session keeps serving.
	if code, sj := stepBody(t, ts2, id, ""); code != http.StatusOK || len(sj.Maps) == 0 {
		t.Fatalf("step after restart: %d (%d maps)", code, len(sj.Maps))
	}
	if rcode, _ := stepBody(t, ts2, id2, ""); rcode != http.StatusNotFound {
		t.Errorf("deleted session answered %d after restart, want 404", rcode)
	}
	// New sessions never reuse an id, even the deleted high-water one.
	_, created3 := postJSON(t, ts2.URL+"/sessions", map[string]string{"mode": "ud"})
	if id3 := int(created3["id"].(float64)); id3 <= id2 {
		t.Errorf("id reuse after restart: got %d, had up to %d", id3, id2)
	}
}

// TestRestartResumeExactDigests pins byte-exact resume end to end: the
// maps a client sees for the same walk must be identical whether the
// server restarted mid-walk or not.
func TestRestartResumeExactDigests(t *testing.T) {
	// Control: an uninterrupted walk (step, recommend, step).
	_, control := durableServer(t, tempStore(t), Options{})
	_, created := postJSON(t, control.URL+"/sessions", map[string]string{"mode": "rp"})
	cid := int(created["id"].(float64))
	if code, _ := stepBody(t, control, cid, ""); code != http.StatusOK {
		t.Fatalf("control step 1: %d", code)
	}
	resp, _ := postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", control.URL, cid),
		map[string]any{"recommendation": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control apply: %d", resp.StatusCode)
	}
	code, want := stepBody(t, control, cid, "")
	if code != http.StatusOK || len(want.Maps) == 0 {
		t.Fatalf("control step 2: %d (%d maps)", code, len(want.Maps))
	}

	// Interrupted: the same walk, with a server restart between the
	// recommendation and the second step.
	dir := t.TempDir()
	store1, err := sessionstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := durableServer(t, store1, Options{})
	_, created = postJSON(t, ts1.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))
	if code, _ := stepBody(t, ts1, id, ""); code != http.StatusOK {
		t.Fatalf("step 1: %d", code)
	}
	resp, _ = postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts1.URL, id),
		map[string]any{"recommendation": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: %d", resp.StatusCode)
	}
	ts1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := sessionstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	_, ts2 := durableServer(t, store2, Options{})
	code, got := stepBody(t, ts2, id, "")
	if code != http.StatusOK {
		t.Fatalf("step after restart: %d", code)
	}
	if got.Selection != want.Selection {
		t.Fatalf("selection: want %q, got %q", want.Selection, got.Selection)
	}
	if len(got.Maps) != len(want.Maps) {
		t.Fatalf("maps: want %d, got %d", len(want.Maps), len(got.Maps))
	}
	for i := range want.Maps {
		if want.Maps[i].Digest != got.Maps[i].Digest {
			t.Errorf("map %d digest: want %s, got %s", i, want.Maps[i].Digest, got.Maps[i].Digest)
		}
	}
}

// TestShedRestoreTransparent covers the janitor's durable path: an idle
// session is shed to the store instead of destroyed, a later request
// restores it transparently, and the shared engine cache is neither
// flushed by the shed nor cold for the restore.
func TestShedRestoreTransparent(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	var offset atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }
	store := tempStore(t)
	s, ts := durableServer(t, store, Options{
		SessionTTL:      time.Minute,
		janitorInterval: time.Hour,
		clock:           clock,
	})

	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))
	if code, _ := stepBody(t, ts, id, ""); code != http.StatusOK {
		t.Fatal("step")
	}
	warm := s.ex.EngineCacheStats()
	if warm.Entries == 0 {
		t.Fatal("setup: step must warm the shared cache")
	}

	offset.Store(int64(2 * time.Minute))
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	// Satellite contract: shedding a session must NOT flush the shared
	// TopMapsCache — its entries serve every other session.
	if st := s.ex.EngineCacheStats(); st.Entries != warm.Entries {
		t.Errorf("shed flushed the shared cache: %d entries, had %d", st.Entries, warm.Entries)
	}
	if snap, ok, _ := store.Get(id); !ok || snap.Final == nil {
		t.Fatalf("shed snapshot: ok=%t %+v", ok, snap)
	}

	// The next request transparently restores — and the replay must hit
	// the still-warm cache rather than recompute from scratch.
	hitsBefore := s.ex.EngineCacheStats().Hits
	if got := summarySteps(t, ts, id); got != 1 {
		t.Errorf("restored session lost its step: %d", got)
	}
	if hits := s.ex.EngineCacheStats().Hits; hits <= hitsBefore {
		t.Errorf("restore replay missed the warm cache: hits %d -> %d", hitsBefore, hits)
	}

	text := metricsText(t, ts)
	if !strings.Contains(text, "subdex_sessions_shed_total 1") {
		t.Errorf("shed counter:\n%s", grepMetric(text, "shed"))
	}
	if !strings.Contains(text, "subdex_sessions_restored_total 1") {
		t.Errorf("restored counter:\n%s", grepMetric(text, "restored"))
	}
	if !strings.Contains(text, "subdex_sessions_evicted_total 0") {
		t.Errorf("durable shed must not count as destruction:\n%s", grepMetric(text, "evicted"))
	}

	// A shed (not live) session is still deletable, straight from the store.
	offset.Store(int64(5 * time.Minute))
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("re-evict: %d, want 1", n)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete of shed session: %d", resp.StatusCode)
	}
	if code, _ := stepBody(t, ts, id, ""); code != http.StatusNotFound {
		t.Errorf("deleted shed session answered %d, want 404", code)
	}
}

// TestOpIDDedup pins idempotent retries: re-sending a committed op's id
// answers from state — the same display, no second execution, no second
// log record.
func TestOpIDDedup(t *testing.T) {
	store := tempStore(t)
	_, ts := durableServer(t, store, Options{})
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))

	code, first := stepBody(t, ts, id, "?opid=7-1")
	if code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	code, retry := stepBody(t, ts, id, "?opid=7-1")
	if code != http.StatusOK {
		t.Fatalf("retried step: %d", code)
	}
	if len(retry.Maps) != len(first.Maps) {
		t.Fatalf("retry maps: %d vs %d", len(retry.Maps), len(first.Maps))
	}
	for i := range first.Maps {
		if first.Maps[i].Digest != retry.Maps[i].Digest {
			t.Errorf("retry map %d digest diverges", i)
		}
	}
	if got := summarySteps(t, ts, id); got != 1 {
		t.Errorf("dedup executed a second step: %d", got)
	}
	if snap, _, _ := store.Get(id); len(snap.Ops) != 1 {
		t.Errorf("dedup logged a second op: %d", len(snap.Ops))
	}

	// Apply dedup: a retried Back must not pop history twice.
	applyURL := fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id)
	resp, _ := postJSON(t, applyURL, map[string]any{"predicate": "reviewers.gender = 'female'", "op_id": "7-2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: %d", resp.StatusCode)
	}
	resp, out := postJSON(t, applyURL, map[string]any{"back": true, "op_id": "7-3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("back: %d (%v)", resp.StatusCode, out)
	}
	resp, out = postJSON(t, applyURL, map[string]any{"back": true, "op_id": "7-3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried back: %d (%v)", resp.StatusCode, out)
	}
	if out["selection"] != "TRUE" {
		t.Errorf("retried back moved again: %v", out)
	}
	if snap, _, _ := store.Get(id); len(snap.Ops) != 3 {
		t.Errorf("retried back logged again: %d ops, want 3", len(snap.Ops))
	}

	// A fresh opid after the dedup executes normally.
	if code, _ = stepBody(t, ts, id, "?opid=7-4"); code != http.StatusOK {
		t.Fatalf("fresh step: %d", code)
	}
	if got := summarySteps(t, ts, id); got != 2 {
		t.Errorf("fresh opid did not execute: %d", got)
	}
}

// assertWonByRanking checks a served step against the session's last
// StepResult: every map's won_by names the criterion its ranking scores
// put first.
func assertWonByRanking(t *testing.T, s *Server, id int, sj StepJSON, label string) {
	t.Helper()
	e, ref := s.table.lookup(context.Background(), id)
	if ref != nil {
		t.Fatalf("%s: lookup: %s", label, ref.msg)
	}
	e.mu.Lock()
	steps := e.sess.Steps()
	step := steps[len(steps)-1]
	e.mu.Unlock()
	if len(sj.Maps) == 0 || len(sj.Maps) != len(step.Scores) {
		t.Fatalf("%s: %d maps served, %d scored", label, len(sj.Maps), len(step.Scores))
	}
	for i, m := range sj.Maps {
		if winner, _ := step.Scores[i].Best(); m.WonBy != winner.String() {
			t.Errorf("%s: map %d won_by %q, ranked by %v (%s)", label, i, m.WonBy, step.Scores[i], winner)
		}
	}
}

// TestWonByIsTheRankingCriterion: won_by is rendered from the scores the
// engine ranked each map by — on a fresh step, on an opid retry answered
// from the committed state, and on a step of a session a second server
// restored from the store.
func TestWonByIsTheRankingCriterion(t *testing.T) {
	store := tempStore(t)
	s1, ts1 := durableServer(t, store, Options{})
	_, created := postJSON(t, ts1.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))

	code, fresh := stepBody(t, ts1, id, "?opid=w-1")
	if code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	assertWonByRanking(t, s1, id, fresh, "fresh step")
	code, retry := stepBody(t, ts1, id, "?opid=w-1")
	if code != http.StatusOK {
		t.Fatalf("retried step: %d", code)
	}
	assertWonByRanking(t, s1, id, retry, "opid retry")
	if resp, _ := postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts1.URL, id), map[string]any{"recommendation": 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("apply recommendation: %d", resp.StatusCode)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := durableServer(t, store, Options{})
	code, restored := stepBody(t, ts2, id, "")
	if code != http.StatusOK {
		t.Fatalf("step after restore: %d", code)
	}
	assertWonByRanking(t, s2, id, restored, "restored session")
}

// TestStepRetryOpidOnNonStepOp pins the retry fast path's kind guard: a
// GET step whose opid tags the last committed *apply* — on a session
// with zero steps — must fall through to normal execution instead of
// indexing an empty step list. Before the guard this panicked with the
// entry lock held, wedging the session into 409s forever.
func TestStepRetryOpidOnNonStepOp(t *testing.T) {
	store := tempStore(t)
	_, ts := durableServer(t, store, Options{})
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))

	applyURL := fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id)
	resp, _ := postJSON(t, applyURL, map[string]any{"predicate": "reviewers.gender = 'female'", "op_id": "x-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: %d", resp.StatusCode)
	}

	code, sj := stepBody(t, ts, id, "?opid=x-1")
	if code != http.StatusOK {
		t.Fatalf("step with the apply's opid: %d, want 200", code)
	}
	if len(sj.Maps) == 0 {
		t.Error("fall-through step returned no maps")
	}
	// The entry lock must have been released: the session keeps serving.
	if got := summarySteps(t, ts, id); got != 1 {
		t.Errorf("steps = %d, want 1", got)
	}
	if snap, _, _ := store.Get(id); len(snap.Ops) != 2 {
		t.Errorf("persisted ops = %d, want 2 (apply + executed step)", len(snap.Ops))
	}
}

// TestDeleteVsRestoreRace pins the delete/restore interlock: a DELETE
// that lands while another request is mid-restore (replaying the session
// through the engine, outside every server lock) must win. Before the
// tombstone + install-time store re-check, the restore re-installed the
// session after its store record was gone — DELETE answered 200 yet the
// session kept serving, leaked the live gauge, and 500ed on its next
// committed op.
func TestDeleteVsRestoreRace(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	var offset atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }
	var arm atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := lightConfig()
	cfg.Engine.MinPhaseRecords = 1
	cfg.Engine.PhaseHook = func(ctx context.Context, phase int) {
		if arm.Load() {
			once.Do(func() { close(entered); <-release })
		}
	}
	s, ts := testServerWith(t, cfg, Options{
		Store:           tempStore(t),
		SessionTTL:      time.Minute,
		janitorInterval: time.Hour,
		clock:           clock,
	})

	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))
	if code, _ := stepBody(t, ts, id, ""); code != http.StatusOK {
		t.Fatal("step")
	}
	offset.Store(int64(2 * time.Minute))
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	// Without the cache the restore replays through real engine phases,
	// where the armed hook can hold it mid-flight.
	s.ex.Gen.Cache = nil
	arm.Store(true)

	restoreCode := make(chan int, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/sessions/%d/summary", ts.URL, id))
		if err != nil {
			t.Error(err)
			restoreCode <- 0
			return
		}
		resp.Body.Close()
		restoreCode <- resp.StatusCode
	}()
	<-entered // the restore is replaying, between its store read and its install

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE during restore: %d, want 200", resp.StatusCode)
	}
	close(release)

	if code := <-restoreCode; code != http.StatusNotFound {
		t.Errorf("restore that lost to DELETE answered %d, want 404", code)
	}
	if code, _ := stepBody(t, ts, id, ""); code != http.StatusNotFound {
		t.Errorf("deleted session answered %d, want 404", code)
	}
	text := metricsText(t, ts)
	if !strings.Contains(text, "subdex_sessions_in_flight 0") {
		t.Errorf("resurrected session leaked the live gauge:\n%s", grepMetric(text, "in_flight"))
	}
}

// TestJanitorStaleShedBenign pins EvictIdle's handling of a refused
// stale shed: it is the store protecting newer durable state, not a WAL
// failure — no failure counter, no shed counter, and the session (whose
// per-op records are all still in the store) remains restorable.
func TestJanitorStaleShedBenign(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	var offset atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }
	// Every Shed loses the race against a concurrent restore-and-commit or
	// DELETE, as far as the store can tell.
	store := &faultStore{Store: tempStore(t)}
	store.arm(map[string]error{"Shed": fmt.Errorf("%w: injected", sessionstore.ErrStaleShed)}, 0)
	s, ts := durableServer(t, store, Options{
		SessionTTL:      time.Minute,
		janitorInterval: time.Hour,
		clock:           clock,
	})

	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))
	if code, _ := stepBody(t, ts, id, ""); code != http.StatusOK {
		t.Fatal("step")
	}
	offset.Store(int64(2 * time.Minute))
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}

	text := metricsText(t, ts)
	if !strings.Contains(text, "subdex_wal_append_failures_total 0") {
		t.Errorf("stale shed counted as WAL failure:\n%s", grepMetric(text, "append_failures"))
	}
	if !strings.Contains(text, "subdex_sessions_shed_total 0") {
		t.Errorf("refused shed counted as shed:\n%s", grepMetric(text, "shed"))
	}
	// The log-before-respond records (create + step) are untouched, so
	// the session restores and keeps its history.
	if got := summarySteps(t, ts, id); got != 1 {
		t.Errorf("restored session lost its step: %d", got)
	}
}

// TestUnknownSessionChecksStore pins the 404 path: with a store
// configured, a genuinely unknown id still 404s on reads and deletes.
func TestUnknownSessionChecksStore(t *testing.T) {
	_, ts := durableServer(t, tempStore(t), Options{})
	if code, _ := stepBody(t, ts, 999, ""); code != http.StatusNotFound {
		t.Errorf("unknown session: %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown: %d, want 404", resp.StatusCode)
	}
}

// TestCreateRollbackOnStoreFailure pins the create path's failure
// atomicity: when the store cannot persist the creation, the client gets
// a 500 and no half-created session remains serving.
func TestCreateRollbackOnStoreFailure(t *testing.T) {
	store := tempStore(t)
	// Pre-seed an id the server will try to claim. Its placeholder
	// snapshot cannot restore (no fingerprint), so boot leaves it in the
	// store — and a create colliding with it fails to persist.
	if err := store.Create(1, &core.SessionSnapshot{Version: core.SnapshotVersion}); err != nil {
		t.Fatal(err)
	}
	s, ts := durableServer(t, store, Options{})
	s.table.mu.Lock()
	s.table.nextID = 1 // collide with the unrecoverable stored session
	s.table.mu.Unlock()

	resp, body := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("create with colliding id: %d %v", resp.StatusCode, body)
	}
	text := metricsText(t, ts)
	if !strings.Contains(text, "subdex_sessions_in_flight 0") {
		t.Errorf("rolled-back session still counted live:\n%s", grepMetric(text, "in_flight"))
	}
	if !strings.Contains(text, "subdex_wal_append_failures_total 1") {
		t.Errorf("append failure not counted:\n%s", grepMetric(text, "append_failures"))
	}
}

// TestDeleteVsInflightStep is the satellite race: DELETE while a step is
// computing must answer 409 immediately (never yank the session out from
// under the engine), and succeed once the step finishes. Run under -race
// in CI.
func TestDeleteVsInflightStep(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := lightConfig()
	cfg.Engine.MinPhaseRecords = 1
	cfg.Engine.PhaseHook = func(ctx context.Context, phase int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	_, ts := testServerWith(t, cfg, Options{Store: tempStore(t)})

	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))
	sURL := fmt.Sprintf("%s/sessions/%d", ts.URL, id)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(sURL + "/step")
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held step: %d", resp.StatusCode)
		}
	}()
	<-entered

	req, _ := http.NewRequest(http.MethodDelete, sURL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE during step: %d, want 409", resp.StatusCode)
	}
	close(release)
	wg.Wait()

	resp, err = http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE after step: %d", resp.StatusCode)
	}
}

// TestDeleteStepHammer races steps, deletes, and an aggressive janitor
// over several sessions with no deterministic holds — pure -race fodder
// for the remove-vs-in-flight and shed-vs-request disciplines.
func TestDeleteStepHammer(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	var offset atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }
	s, ts := durableServer(t, tempStore(t), Options{
		SessionTTL:      time.Millisecond,
		janitorInterval: time.Hour,
		clock:           clock,
	})

	const users = 6
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() { // the janitor, shedding everything idle on every pass
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			offset.Add(int64(time.Second))
			s.EvictIdle()
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
			id := int(created["id"].(float64))
			sURL := fmt.Sprintf("%s/sessions/%d", ts.URL, id)
			for i := 0; i < 6; i++ {
				resp, err := http.Get(sURL + "/step")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusConflict:
				default:
					t.Errorf("step: %d", resp.StatusCode)
				}
			}
			req, _ := http.NewRequest(http.MethodDelete, sURL, nil)
			for {
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusConflict {
					continue // in-flight somewhere; retry
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("delete: %d", resp.StatusCode)
				}
				return
			}
		}()
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
}

// TestCommitWindowIsPinned is the deterministic form of
// TestDeleteStepHammer's `step: 500`: the janitor sweeps (hand clock, the
// session long idle) after commit unlocked the session and before its
// AppendOp lands. Unpinned, the sweep snapshots the session with the
// just-committed op and sheds it, the store holds seq N when
// AppendOp(N) arrives, and a durable op answers "append seq 0, want 1".
// A DELETE in the same window must answer 409, not pull the record out
// from under the append.
func TestCommitWindowIsPinned(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		base := time.Now()
		var s *Server
		var offset, swept, deleteStatus atomic.Int64 // written on handler goroutines
		// The head of AppendOp is inside the window between commit
		// releasing the session lock and the op reaching the log, which
		// TestDeleteStepHammer only hits by chance.
		store := &faultStore{Store: tempStore(t), before: func(method string, id int) {
			if method != "AppendOp" {
				return
			}
			offset.Add(int64(time.Hour))
			swept.Add(int64(s.EvictIdle()))
			if ref := s.table.remove(id); ref != nil {
				deleteStatus.Store(int64(ref.status))
			}
		}}
		s, ts := durableServer(t, store, Options{
			SessionTTL:      time.Minute,
			janitorInterval: 24 * time.Hour,
			clock:           func() time.Time { return base.Add(time.Duration(offset.Load())) },
		})
		_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
		id := int(created["id"].(float64))
		for step := 1; step <= 2; step++ {
			if code, _ := stepBody(t, ts, id, ""); code != http.StatusOK {
				t.Fatalf("step %d answered %d with the janitor inside its commit window", step, code)
			}
			snap, ok, err := store.Get(id)
			if err != nil || !ok || len(snap.Ops) != step {
				t.Fatalf("after step %d the store holds %+v (ok=%v, err=%v), want %d ops", step, snap, ok, err, step)
			}
		}
		if swept.Load() != 0 || deleteStatus.Load() != http.StatusConflict {
			t.Errorf("inside the window: %d sessions shed, DELETE answered %d; want 0 and 409", swept.Load(), deleteStatus.Load())
		}
		// Once the append has landed the session is idle again: the
		// same sweep sheds it, and the next step restores it.
		offset.Add(int64(time.Hour))
		if n := s.EvictIdle(); n != 1 {
			t.Fatalf("sweep after the append shed %d sessions, want 1", n)
		}
		if code, _ := stepBody(t, ts, id, ""); code != http.StatusOK {
			t.Fatalf("step on the shed session answered %d", code)
		}
	})
}

// TestDeleteStoreReadFaultIs500 pins a handleDelete fix: when the session is not in memory and the store read that
// decides between 404 and restore fails, the client must see a 500.
// Answering "no such session" on a store fault reports a durable record
// gone while its bytes — and the delete obligation — still exist.
func TestDeleteStoreReadFaultIs500(t *testing.T) {
	store := &faultStore{Store: tempStore(t)}
	store.arm(map[string]error{"Get": fmt.Errorf("injected read fault")}, 0)
	_, ts := durableServer(t, store, Options{})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/7", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("delete on a faulting store answered %d, want 500", resp.StatusCode)
	}
}

// TestCloseJoinsJanitor pins that Close waits for the janitor goroutine
// to exit. Before the join, Close only signalled the stop channel, so a
// caller tearing down the store right after Close could race a shed
// still in flight inside EvictIdle.
func TestCloseJoinsJanitor(t *testing.T) {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	var offset atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }
	// Every Shed parks until released, holding the janitor mid-eviction.
	started := make(chan struct{}) // closed when the first Shed begins
	release := make(chan struct{}) // a Shed returns once this closes
	var once sync.Once
	store := &faultStore{Store: tempStore(t), before: func(method string, _ int) {
		if method == "Shed" {
			once.Do(func() { close(started) })
			<-release
		}
	}}
	s, ts := durableServer(t, store, Options{
		SessionTTL:      time.Minute,
		janitorInterval: time.Millisecond,
		clock:           clock,
	})

	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	if _, ok := created["id"]; !ok {
		t.Fatal("create failed")
	}
	offset.Store(int64(2 * time.Minute)) // session is now idle-expired
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("janitor never started shedding")
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the janitor was mid-shed")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the shed finished")
	}
}
