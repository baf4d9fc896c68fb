package server

import (
	"context"
	"errors"
	"math/rand"
	"os"
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
		for seq, op := range sess.Oplog() {
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
	store := sessionstore.NewMemStore()
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

// TestBootRecoveryInIdOrder pins the order sessions are restored in —
// the order the accumulator cache is rewarmed and flight events are
// written — by making every restore fail and reading the events back.
func TestBootRecoveryInIdOrder(t *testing.T) {
	db, err := gen.Demo(gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := sessionstore.NewMemStore()
	const sessions = 12
	for _, id := range rand.New(rand.NewSource(1)).Perm(sessions) {
		stale := &core.SessionSnapshot{Version: core.SnapshotVersion + 1, Mode: "ud", Start: "TRUE"}
		if err := store.Create(id+1, stale); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewWithOptions(db, lightConfig(), Options{Store: store})
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

// BenchmarkBootRecovery is serve_durable's set-up without the benchmark
// around it: open a WAL of 200 crashed demo sessions of 10 steps each and
// boot a server over it, every session replayed through the engine and
// checked against its logged digests.
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := sessionstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewWithOptionsCtx(context.Background(), db, core.DefaultConfig(), Options{Store: store})
		if err != nil {
			b.Fatal(err)
		}
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
}
