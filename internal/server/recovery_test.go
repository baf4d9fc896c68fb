package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/sessionstore"
)

// seedSessions leaves sessions 1..n in store, each a User-Driven walk of
// the given number of steps over db: a step, then a drill into one of its
// bars (70%) or a Back (30%) — serve_durable's mix. Every op is appended on
// its own, as a server's commits are.
func seedSessions(tb testing.TB, store sessionstore.Store, db *dataset.DB, cfg core.Config, n, steps int) {
	tb.Helper()
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for id := 1; id <= n; id++ {
		sess, err := core.NewSession(ex, core.UserDriven, query.Description{})
		if err != nil {
			tb.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(id)))
		for {
			res, err := sess.Step()
			if err != nil {
				tb.Fatal(err)
			}
			if sess.NumSteps() == steps {
				break
			}
			// A drill can empty the selection; the only way on is back.
			if (len(res.Maps) == 0 || rng.Float64() < 0.3) && sess.Back() {
				continue
			}
			rm := res.Maps[rng.Intn(len(res.Maps))]
			sg := rm.Subgroups[rng.Intn(len(rm.Subgroups))]
			sel := query.Selector{Side: rm.Side, Attr: rm.Attr, Value: ex.DictFor(rm).Value(sg.Value)}
			if d, err := sess.Current().With(sel); err == nil {
				if err := sess.ApplyDescription(d); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := store.Create(id, sess.BaseSnapshot()); err != nil {
			tb.Fatal(err)
		}
		for seq, op := range sess.Snapshot().Ops {
			if err := store.AppendOp(id, seq, op); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func liveSessions(s *Server) int {
	s.table.mu.Lock()
	defer s.table.mu.Unlock()
	return len(s.table.sessions)
}

// cancelAfter is a span sink that cancels a context once it has seen n
// finished steps: a boot called off part-way through recovery, without a
// clock in the test.
type cancelAfter struct {
	n      int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Collect(root *obs.SpanData) {
	if root.Name == "core.step" && atomic.AddInt64(&c.n, -1) == 0 {
		c.cancel()
	}
}

// TestBootRecoveryHonoursContext pins what NewWithOptionsCtx's context is
// for: a boot whose context is done fails with the context's error — it
// does not come up empty, and it does not flight-record the sessions it
// never got to as failures — and the store it leaves recovers in full.
func TestBootRecoveryHonoursContext(t *testing.T) {
	db, err := gen.Demo(gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sessions, steps = 3, 2
	store := tempStore(t)
	seedSessions(t, store, db, lightConfig(), sessions, steps)

	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancelled before the boot", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, context.Canceled},
		{"deadline already passed", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		}, context.DeadlineExceeded},
		{"cancelled mid-recovery", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			// Session 1 replays whole; session 2 loses its context between
			// its two steps.
			return obs.WithSink(ctx, &cancelAfter{n: steps + 1, cancel: cancel}), cancel
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.ctx()
			defer cancel()
			flightDir := t.TempDir()
			s, err := NewWithOptionsCtx(ctx, db, lightConfig(), Options{Store: store, FlightDir: flightDir})
			if err == nil {
				s.Close()
				t.Fatalf("boot under a done context succeeded with %d of %d sessions live", liveSessions(s), sessions)
			}
			if !errors.Is(err, tc.want) || !strings.HasPrefix(err.Error(), "server: session recovery: ") {
				t.Errorf("err = %v, want %v wrapped as a session-recovery error", err, tc.want)
			}
			if dumps, _ := os.ReadDir(flightDir); len(dumps) != 0 {
				t.Errorf("an aborted boot flight-dumped %d files (first %s): the sessions did not fail", len(dumps), dumps[0].Name())
			}

			// The store was only read: the next boot recovers everything.
			s, err = NewWithOptionsCtx(context.Background(), db, lightConfig(), Options{Store: store, FlightDir: flightDir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := liveSessions(s); got != sessions {
				t.Errorf("second boot recovered %d of %d sessions", got, sessions)
			}
			if dumps, _ := os.ReadDir(flightDir); len(dumps) != 0 {
				t.Errorf("second boot flight-dumped %s", dumps[0].Name())
			}
		})
	}
}

// TestBootRecoveryInIdOrder pins the order recovered sessions are
// installed and their flight events written in — ascending id — by making
// every restore fail and reading the events back. The accumulator cache is
// rewarmed in another order, the prefix walk's (core.RestoreSessions).
func TestBootRecoveryInIdOrder(t *testing.T) {
	db, err := gen.Demo(gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := tempStore(t)
	const sessions = 12
	for _, id := range rand.New(rand.NewSource(1)).Perm(sessions) {
		stale := &core.SessionSnapshot{Version: core.SnapshotVersion + 1, Mode: "ud", Start: "TRUE"}
		if err := store.Create(id+1, stale); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewWithOptionsCtx(context.Background(), db, lightConfig(), Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	events := s.Flight().Snapshot("", 0) // newest first
	if len(events) != sessions {
		t.Fatalf("%d flight events, want one per unrestorable session (%d)", len(events), sessions)
	}
	for i, ev := range events {
		if id, _ := ev.Get("session"); id != sessions-i {
			t.Fatalf("event %d from the end is session %v, want %d: recovery is not in id order", i, id, sessions-i)
		}
	}
}

// TestRecoveryStartsNoSession: subdex_sessions_started_total counts the
// sessions clients create. A boot that recovers n stored sessions leaves
// it at 0 — subdex_sessions_recovered_total counts those — and the next
// create moves it to 1.
func TestRecoveryStartsNoSession(t *testing.T) {
	db, err := gen.Demo(gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	store := tempStore(t)
	seedSessions(t, store, db, lightConfig(), sessions, 2)
	s, err := NewWithOptionsCtx(context.Background(), db, lightConfig(), Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.sessionsRecovered.Value(); got != sessions {
		t.Fatalf("recovered %d sessions, want %d", got, sessions)
	}
	if got := s.ex.Ins.SessionsStarted.Value(); got != 0 {
		t.Errorf("subdex_sessions_started_total = %d after a boot that only recovered, want 0", got)
	}
	if _, ref := s.table.create(core.UserDriven, query.Description{}); ref != nil {
		t.Fatal(ref.msg)
	}
	if got := s.ex.Ins.SessionsStarted.Value(); got != 1 {
		t.Errorf("subdex_sessions_started_total = %d after one create, want 1", got)
	}
}

// TestCorruptTailIsFlightRecorded: a torn WAL tail the store cut at open
// is a flight event at boot, also when a wrapper stands between the server
// and the FileStore — the server reads the cut from Store.Recovery, not
// from the concrete type.
func TestCorruptTailIsFlightRecorded(t *testing.T) {
	db, err := gen.Demo(gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := sessionstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedSessions(t, store, db, lightConfig(), 1, 1)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, sessionstore.WALFileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"torn`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = sessionstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	s, err := NewWithOptionsCtx(context.Background(), db, lightConfig(), Options{Store: &faultStore{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := liveSessions(s); got != 1 {
		t.Errorf("recovered %d sessions from before the tear, want 1", got)
	}
	for _, ev := range s.Flight().Snapshot("", 0) {
		if op, _ := ev.Get("op"); op == "wal_truncation" {
			return
		}
	}
	t.Error("the boot cut a torn WAL tail and flight-recorded nothing")
}

// stepCounter is a span sink counting the engine steps run under it.
type stepCounter struct{ n atomic.Int64 }

func (c *stepCounter) Collect(root *obs.SpanData) {
	if root.Name == "core.step" {
		c.n.Add(1)
	}
}

// TestRecoveryReplaysEachPrefixOnce boots a server over a store whose logs
// share prefixes — across two modes and two starts, with an OpID-tagged
// twin, a degraded step, a shed snapshot with its Final record and a
// tampered digest — and holds every recovered session to what restoring it
// alone gives: the same Snapshot, or the same error. The engine runs one
// step per distinct step prefix, each session keeps its own log's ops and
// OpID tags, and the sessions that fail are exactly the two whose logs
// hold the tampered op and the one whose Final record its shared replay
// does not reach.
func TestRecoveryReplaysEachPrefixOnce(t *testing.T) {
	db, err := gen.Demo(gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lightConfig()
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	root, err := core.NewSession(ex, core.UserDriven, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := root.Step()
	if err != nil {
		t.Fatal(err)
	}
	rm := first.Maps[0]
	var preds []string
	for _, sg := range rm.Subgroups[:2] {
		d, err := root.Current().With(query.Selector{Side: rm.Side, Attr: rm.Attr, Value: ex.DictFor(rm).Value(sg.Value)})
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, d.String())
	}
	predA, predB := preds[0], preds[1]

	// live runs a walk on a session of its own; each op is "step", "back",
	// "rec" (the top recommendation) or a predicate to apply.
	live := func(mode core.Mode, start string, ops ...string) *core.Session {
		t.Helper()
		d, err := ex.ParseDescription(start)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := core.NewSession(ex, mode, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			switch op {
			case "step":
				_, err = sess.Step()
			case "back":
				if !sess.Back() {
					err = errors.New("back on empty history")
				}
			case "rec":
				err = sess.ApplyRecommendation(0)
			default:
				var to query.Description
				if to, err = ex.ParseDescription(op); err == nil {
					err = sess.ApplyDescription(to)
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
		}
		return sess
	}
	logOf := func(sess *core.Session) *core.SessionSnapshot {
		snap := sess.Snapshot()
		snap.Final = nil
		return snap
	}
	edit := func(snap *core.SessionSnapshot, i int, change func(op *core.SessionOp)) *core.SessionSnapshot {
		out := *snap
		out.Ops = slices.Clone(snap.Ops)
		change(&out.Ops[i])
		return &out
	}
	degrade := func(op *core.SessionOp) {
		op.Degraded = true
		for _, rm := range first.Maps {
			op.Seen = append(op.Seen, core.SeenDelta{Dim: rm.Dim, Dist: rm.Distribution()})
		}
	}
	one := logOf(live(core.UserDriven, "TRUE", "step", predA, "step"))
	two := live(core.UserDriven, "TRUE", "step", predA, "step", "back", "step")
	three := logOf(live(core.UserDriven, "TRUE", "step", predB, "step"))
	tampered := edit(one, 2, func(op *core.SessionOp) { op.Digests = append([]string{"tampered"}, op.Digests[1:]...) })
	tamperedLonger := logOf(two)
	tamperedLonger.Ops[2] = tampered.Ops[2]
	logs := map[int]*core.SessionSnapshot{
		1:  one,
		2:  logOf(two),
		3:  three,
		4:  logOf(live(core.RecommendationPowered, "TRUE", "step", "rec", "step")),
		5:  logOf(live(core.RecommendationPowered, "TRUE", "step", "rec", "step", "rec", "step")),
		6:  logOf(live(core.UserDriven, predA, "step", "step")),
		7:  logOf(live(core.UserDriven, predA, "step")),
		8:  edit(logOf(two), 1, func(op *core.SessionOp) { op.OpID = "w8-apply" }),
		9:  tampered,
		10: tamperedLonger,
		11: edit(one, 0, degrade),
		12: edit(three, 0, degrade),
		13: two.Snapshot(), // shed, Final and all
		14: two.Snapshot(),
	}
	logs[8].Ops[4].OpID = "w8-step"
	logs[14].Final.Steps++
	failing := map[int]bool{9: true, 10: true, 14: true}

	dir := t.TempDir()
	store, err := sessionstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id, snap := range logs {
		base := &core.SessionSnapshot{Version: snap.Version, Fingerprint: snap.Fingerprint, Mode: snap.Mode, Start: snap.Start}
		if err := store.Create(id, base); err != nil {
			t.Fatal(err)
		}
		if snap.Final != nil {
			err = store.Shed(id, snap)
		}
		for seq, op := range snap.Ops {
			if err == nil && snap.Final == nil {
				err = store.AppendOp(id, seq, op)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if store, err = sessionstore.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stored, _, err := store.All()
	if err != nil {
		t.Fatal(err)
	}

	// What restoring each session alone gives, on an explorer of its own,
	// and the step prefixes the engine must run: every prefix ending in a
	// recomputed step, up to and including a failing op.
	alone, err := core.NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefixes, steps := map[string]bool{}, 0
	for id, snap := range stored {
		want, werr := core.RestoreSession(ctx, alone, snap)
		if (werr != nil) != failing[id] {
			t.Fatalf("session %d alone: err %v, want failing %t", id, werr, failing[id])
		}
		key := snap.Mode + "|" + snap.Start
		for i, op := range snap.Ops {
			op.OpID = ""
			key += fmt.Sprintf("|%+v", op)
			if op.Kind == core.OpStep && !op.Degraded {
				prefixes[key] = true
				steps++
			}
			if (id == 9 || id == 10) && i == 2 {
				break
			}
		}
		logs[id] = nil
		if werr == nil {
			logs[id] = want.Snapshot()
		}
	}

	counter := &stepCounter{}
	s, err := NewWithOptionsCtx(obs.WithSink(ctx, counter), db, cfg, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := counter.n.Load(); got != int64(len(prefixes)) || len(prefixes) >= steps {
		t.Errorf("recovery ran %d engine steps for %d distinct step prefixes (%d steps logged)", got, len(prefixes), steps)
	}
	failed := map[int]string{}
	for _, ev := range s.Flight().Snapshot("", 0) {
		id, _ := ev.Get("session")
		msg, _ := ev.Get("error")
		failed[id.(int)] = msg.(string)
	}
	for id, want := range logs {
		e := s.table.sessions[id]
		if failing[id] {
			_, werr := core.RestoreSession(ctx, alone, stored[id])
			if e != nil || failed[id] != werr.Error() {
				t.Errorf("session %d: live %t, flight error %q; want it failed with %q", id, e != nil, failed[id], werr)
			}
			continue
		}
		if e == nil {
			t.Errorf("session %d not recovered (%s)", id, failed[id])
			continue
		}
		got := e.sess.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("session %d recovers as\n%+v\nalone it restores as\n%+v", id, got, want)
		}
		if !reflect.DeepEqual(got.Ops, stored[id].Ops) {
			t.Errorf("session %d recovers the ops\n%+v\nits log holds\n%+v", id, got.Ops, stored[id].Ops)
		}
	}
	if len(failed) != len(failing) {
		t.Errorf("flight events for sessions %v, want %v", failed, failing)
	}
}

// BenchmarkBootRecovery is serve_durable's set-up without the benchmark
// around it: open a WAL of 200 crashed demo sessions of 10 steps each and
// boot a server over it, every session replayed through the engine and
// checked against its logged digests. open_ms is sessionstore.Open (read,
// checksum and decode the log) and recover_ms the server's boot over it
// (the replay), each per boot.
//
//	go test ./internal/server -run '^$' -bench BootRecovery -benchtime 20x
func BenchmarkBootRecovery(b *testing.B) {
	const sessions, steps = 200, 10
	db, err := gen.Demo(gen.Config{})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	seed, err := sessionstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	seedSessions(b, seed, db, core.DefaultConfig(), sessions, steps)
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}
	var opening, recovering time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		store, err := sessionstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		opened := time.Now()
		s, err := NewWithOptionsCtx(context.Background(), db, core.DefaultConfig(), Options{Store: store})
		if err != nil {
			b.Fatal(err)
		}
		opening += opened.Sub(start)
		recovering += time.Since(opened)
		if got := liveSessions(s); got != sessions {
			b.Fatalf("recovered %d of %d sessions", got, sessions)
		}
		b.StopTimer()
		s.Close()
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N)/sessions, "ms/session")
	b.ReportMetric(float64(opening.Microseconds())/1000/float64(b.N), "open_ms")
	b.ReportMetric(float64(recovering.Microseconds())/1000/float64(b.N), "recover_ms")
}
