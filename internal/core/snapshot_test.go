package core

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subdex/internal/gen"
	"subdex/internal/query"
)

// walk drives a small mixed-op session: steps, a recommendation, an
// explicit predicate move, and a Back — one of every loggable op kind.
func walk(t *testing.T, sess *Session) {
	t.Helper()
	res, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("walk needs a recommendation to follow")
	}
	if err := sess.ApplyRecommendation(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	d, err := sess.Ex.ParseDescription("reviewers.gender = 'female'")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ApplyDescription(d); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	if !sess.Back() {
		t.Fatal("back must move")
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
}

// assertSameSession compares the restored session's observable state to
// the original's, field by field.
func assertSameSession(t *testing.T, want, got *Session) {
	t.Helper()
	if w, g := want.Current().String(), got.Current().String(); w != g {
		t.Errorf("current selection: want %q, got %q", w, g)
	}
	if w, g := want.NumSteps(), got.NumSteps(); w != g {
		t.Fatalf("steps: want %d, got %d", w, g)
	}
	ws, gs := want.Steps(), got.Steps()
	for i := range ws {
		if len(ws[i].Maps) != len(gs[i].Maps) {
			t.Fatalf("step %d: want %d maps, got %d", i, len(ws[i].Maps), len(gs[i].Maps))
		}
		for j := range ws[i].Maps {
			if w, g := ws[i].Maps[j].Digest(), gs[i].Maps[j].Digest(); w != g {
				t.Errorf("step %d map %d digest: want %s, got %s", i, j, w, g)
			}
		}
	}
	if !got.Seen().EqualState(want.Seen().State()) {
		t.Error("restored seen-set diverges from original")
	}
	wOps, gOps := want.Snapshot().Ops, got.Snapshot().Ops
	if len(wOps) != len(gOps) {
		t.Fatalf("oplog: want %d ops, got %d", len(wOps), len(gOps))
	}
	for i := range wOps {
		if wOps[i].OpID != gOps[i].OpID {
			t.Errorf("op %d id: want %q, got %q", i, wOps[i].OpID, gOps[i].OpID)
		}
	}
}

// TestSnapshotRestoreRoundTrip is the core durability contract: a
// snapshot replayed through a fresh engine over the same dataset rebuilds
// the session exactly — selection, step count, every displayed map's
// digest, the seen set, and the idempotency tags.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	walk(t, sess)
	sess.TagLastOp("42-7")
	snap := sess.Snapshot()

	// A fresh explorer over the same dataset and config: the restore
	// replays with cold caches and must still match bit for bit.
	fresh, err := NewExplorer(coreDB(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreSession(context.Background(), fresh, snap)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSession(t, sess, got)
	if last, ok := got.LastOp(); !ok || last.OpID != "42-7" {
		t.Errorf("idempotency tag lost across restore: %+v ok=%t", last, ok)
	}

	// The rebuilt sessions must also agree on where the walk goes next.
	wres, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	gres, err := got.Step()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wres.Maps {
		if w, g := wres.Maps[i].Digest(), gres.Maps[i].Digest(); w != g {
			t.Errorf("post-restore step map %d: want %s, got %s", i, w, g)
		}
	}
}

// TestSnapshotJSONRoundTrip pins that the snapshot survives its wire
// format: marshal, unmarshal, restore.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, UserDriven, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(sess.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap SessionSnapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreSession(context.Background(), ex, &snap)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSession(t, sess, got)
}

// TestRestoreRejections covers the refuse-to-guess paths: wrong version,
// wrong engine fingerprint, and a digest the replay cannot reproduce.
func TestRestoreRejections(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}

	bad := sess.Snapshot()
	bad.Version = SnapshotVersion + 1
	if _, err := RestoreSession(context.Background(), ex, bad); err == nil {
		t.Error("version mismatch must be rejected")
	}

	bad = sess.Snapshot()
	bad.Fingerprint = "0000000000000000"
	if _, err := RestoreSession(context.Background(), ex, bad); err == nil {
		t.Error("fingerprint mismatch must be rejected")
	}

	bad = sess.Snapshot()
	bad.Ops[0].Digests[0] = "tampered"
	if _, err := RestoreSession(context.Background(), ex, bad); err == nil {
		t.Error("digest mismatch must be rejected")
	}

	if _, err := RestoreSession(context.Background(), ex, nil); err == nil {
		t.Error("nil snapshot must be rejected")
	}

	// A different engine configuration changes the fingerprint itself.
	cfg := DefaultConfig()
	cfg.K = 5
	other, err := NewExplorer(coreDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSession(context.Background(), other, sess.Snapshot()); err == nil {
		t.Error("snapshot must not restore against a differently-configured engine")
	}
}

// TestReplayComparesLoggedDigests pins the replay check where it now
// lives: RestoreSession holds each recorded step's digests against the
// ones the replayed step has just logged, so one changed byte in any
// stored digest of any step — or a digest too few — still refuses the
// session.
func TestReplayComparesLoggedDigests(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	walk(t, sess)
	// tampered returns the session's snapshot with op i's digests replaced
	// by a private, edited copy (a snapshot shares them with the session).
	tampered := func(i int, edit func([]string) []string) *SessionSnapshot {
		snap := sess.Snapshot()
		snap.Final = nil // leave the digests the only check
		snap.Ops[i].Digests = edit(slices.Clone(snap.Ops[i].Digests))
		return snap
	}
	steps := 0
	for i, op := range sess.Snapshot().Ops {
		if op.Kind != OpStep {
			continue
		}
		steps++
		for m, digest := range op.Digests {
			for _, at := range []int{0, len(digest) / 2, len(digest) - 1} {
				snap := tampered(i, func(ds []string) []string {
					b := []byte(ds[m])
					b[at] ^= 0x01
					ds[m] = string(b)
					return ds
				})
				_, err := RestoreSession(context.Background(), ex, snap)
				if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
					t.Fatalf("op %d map %d byte %d changed: err = %v, want a digest mismatch", i, m, at, err)
				}
			}
		}
		snap := tampered(i, func(ds []string) []string { return ds[:len(ds)-1] })
		if _, err := RestoreSession(context.Background(), ex, snap); err == nil || !strings.Contains(err.Error(), "log recorded") {
			t.Fatalf("op %d with a digest dropped: err = %v, want a map-count mismatch", i, err)
		}
	}
	if steps != 4 {
		t.Fatalf("walk logged %d steps, want 4", steps)
	}
	restored, err := RestoreSession(context.Background(), ex, sess.Snapshot())
	if err != nil {
		t.Fatalf("untampered snapshot: %v", err)
	}
	for i, st := range restored.Steps() {
		for m, rm := range st.Maps {
			if st.Digests[m] != rm.Digest() {
				t.Fatalf("step %d map %d: StepResult.Digests is not the map's digest", i, m)
			}
		}
	}
}

// TestDegradedStepSnapshotRestore covers the anytime-step exception: a
// degraded step's partial scan depends on wall-clock phase boundaries, so
// its op replays from the recorded seen-set delta instead of recomputing
// — and the session's continuation after restore still matches the
// original's exactly.
func TestDegradedStepSnapshotRestore(t *testing.T) {
	var stall atomic.Bool
	stall.Store(true)
	cfg := DefaultConfig()
	cfg.StepTimeout = 50 * time.Millisecond
	cfg.Engine.MinPhaseRecords = 1
	cfg.Engine.PhaseHook = func(ctx context.Context, phase int) {
		if phase > 0 && stall.Load() {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
		}
	}
	ex, err := NewExplorer(coreDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("setup failed: first step must degrade")
	}
	stall.Store(false) // subsequent steps run to completion
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	if !snap.Ops[0].Degraded || len(snap.Ops[0].Seen) == 0 {
		t.Fatalf("degraded step must log its seen delta: %+v", snap.Ops[0])
	}

	// Restore against an engine with neither the stalling hook nor the
	// deadline: replay must not attempt to recompute the anytime prefix.
	freshCfg := DefaultConfig()
	freshCfg.Engine.MinPhaseRecords = 1
	fresh, err := NewExplorer(coreDB(t), freshCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreSession(context.Background(), fresh, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSteps() != sess.NumSteps() {
		t.Fatalf("steps: want %d, got %d", sess.NumSteps(), got.NumSteps())
	}
	if !got.Steps()[0].Degraded {
		t.Error("restored step 0 must stay marked degraded")
	}
	if !got.Seen().EqualState(sess.Seen().State()) {
		t.Error("restored seen-set diverges from original")
	}
	wres, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	gres, err := got.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(wres.Maps) != len(gres.Maps) {
		t.Fatalf("continuation maps: want %d, got %d", len(wres.Maps), len(gres.Maps))
	}
	for i := range wres.Maps {
		if w, g := wres.Maps[i].Digest(), gres.Maps[i].Digest(); w != g {
			t.Errorf("continuation map %d: want %s, got %s", i, w, g)
		}
	}
}

// TestFingerprintSensitivity pins what the fingerprint must and must not
// react to: result-affecting parameters change it, scheduling knobs do
// not (a snapshot taken under one worker count or step deadline must
// restore under another).
func TestFingerprintSensitivity(t *testing.T) {
	db := coreDB(t)
	base, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.StepTimeout = time.Hour
	cfg.Engine.Workers = 1
	sched, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != sched.Fingerprint() {
		t.Error("scheduling knobs must not change the fingerprint")
	}
	// The candidate caps are result-affecting too: they decide which
	// operation a recorded recommendation index replays onto.
	for name, mut := range map[string]func(*Config){
		"O":                     func(c *Config) { c.O = 7 },
		"MaxValuesPerAttribute": func(c *Config) { c.Limits.MaxValuesPerAttribute = 2 },
		"MaxCandidates":         func(c *Config) { c.Limits.MaxCandidates = 50 },
	} {
		cfg = DefaultConfig()
		mut(&cfg)
		diff, err := NewExplorer(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base.Fingerprint() == diff.Fingerprint() {
			t.Errorf("%s is result-affecting and must change the fingerprint", name)
		}
	}
}

// TestFingerprintPinned pins the fingerprint of the default configuration
// over the demo dataset to its literal value. Stored session directories
// and mixed-version clusters compare this string, so a refactor that
// renames or drops a config field must leave it alone (the literal
// "exact=false" token in Fingerprint exists for that reason).
func TestFingerprintPinned(t *testing.T) {
	db, err := gen.Demo(gen.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex.Fingerprint(), "717fe74f99701140"; got != want {
		t.Fatalf("Fingerprint() = %s, want %s: stored sessions and workers of the previous version would be refused", got, want)
	}
}

// TestFingerprintPinnedSingleDimension pins the other utility rendering
// every stored session carries: a single-dimension database, on which
// NewExplorer turns dimension weighting off, so the literal util= token
// Fingerprint writes must render DisableDimensionWeights:true as the
// struct's %+v did.
func TestFingerprintPinnedSingleDimension(t *testing.T) {
	db, err := gen.Movielens(gen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Cfg.Engine.Utility.DisableDimensionWeights {
		t.Fatal("a single-dimension explorer must weight no dimension")
	}
	if got, want := ex.Fingerprint(), "7ae8bd913fdeba6f"; got != want {
		t.Fatalf("Fingerprint() = %s, want %s: stored sessions and workers of the previous version would be refused", got, want)
	}
}

// TestRestoredSessionsStepConcurrently steps two sessions restored from
// one shared prefix at the same time: they share the prefix's committed
// StepResults, so under -race any write to those, or to state the clone
// should have copied, shows here. Both must end where one session alone
// ends.
func TestRestoredSessionsStepConcurrently(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	walk(t, sess)
	snap := sess.Snapshot()
	got, errs := RestoreSessions(context.Background(), ex, []*SessionSnapshot{snap, snap})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got[0] == got[1] || got[0].Steps()[0] != got[1].Steps()[0] {
		t.Fatal("the two restores must be two sessions sharing the prefix's steps")
	}
	var wg sync.WaitGroup
	snaps := make([]*SessionSnapshot, 2)
	for i, s := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				if _, err := s.Step(); err != nil {
					t.Error(err)
					return
				}
				if err := s.ApplyRecommendation(0); err != nil {
					t.Error(err)
					return
				}
			}
			for _, st := range s.Steps() {
				_ = st.Profile.Selection + strings.Join(st.Digests, "")
			}
			snaps[i] = s.Snapshot()
		}()
	}
	wg.Wait()
	for range 2 {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
		if err := sess.ApplyRecommendation(0); err != nil {
			t.Fatal(err)
		}
	}
	want := sess.Snapshot()
	for i, s := range snaps {
		if !reflect.DeepEqual(s, want) {
			t.Errorf("restored session %d ends at\n%+v\nwant\n%+v", i, s, want)
		}
	}
}
