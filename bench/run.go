package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"subdex/internal/obs"
	"subdex/internal/workload"
)

// recorder collects the operations of one round in the order the single
// closed-loop client issued them.
type recorder struct {
	ops []op
	// keepSessions makes delete a no-op, for seeding undeleted sessions.
	keepSessions bool
	// onClose, when set, sees every walk's client before it is closed.
	onClose func(c workload.Client)
}

func (r *recorder) add(o op) { r.ops = append(r.ops, o) }

func (r *recorder) bad() int {
	n := 0
	for _, o := range r.ops {
		if o.Bad {
			n++
		}
	}
	return n
}

// timedClient wraps a walk's client and records every call that reaches
// the system under test as one op with its wall time. An auto-pilot burst
// is unrolled into the step and follow-top-1 calls it stands for (exactly
// the loop Session.AutoCtx and HTTPClient.Auto run), so every step display
// is its own operation.
type timedClient struct {
	inner workload.Client
	rec   *recorder
	walk  int
}

func (c *timedClient) record(kind, arg string, start time.Time, digest string, bad bool) {
	c.rec.add(op{Walk: c.walk, Kind: kind, Arg: arg, Digest: digest, Dur: time.Since(start), Bad: bad})
}

func (c *timedClient) Step(ctx context.Context) (*workload.StepView, error) {
	start := time.Now()
	sv, err := c.inner.Step(ctx)
	if err != nil {
		c.record("step", "", start, "", true)
		return nil, err
	}
	c.record("step", "", start, sv.Digest(), sv.Degraded)
	return sv, nil
}

func (c *timedClient) Apply(ctx context.Context, predicate string) error {
	start := time.Now()
	err := c.inner.Apply(ctx, predicate)
	c.record("apply", predicate, start, "", err != nil)
	return err
}

func (c *timedClient) ApplyRecommendation(ctx context.Context, i int) error {
	start := time.Now()
	err := c.inner.ApplyRecommendation(ctx, i)
	c.record("rec", strconv.Itoa(i), start, "", err != nil)
	return err
}

func (c *timedClient) Back(ctx context.Context) (bool, error) {
	start := time.Now()
	moved, err := c.inner.Back(ctx)
	c.record("back", strconv.FormatBool(moved), start, "", err != nil)
	return moved, err
}

func (c *timedClient) Auto(ctx context.Context, m int) ([]*workload.StepView, error) {
	var views []*workload.StepView
	for i := 0; i < m; i++ {
		sv, err := c.Step(ctx)
		if err != nil {
			return views, err
		}
		views = append(views, sv)
		if i == m-1 || len(sv.Recommendations) == 0 {
			break
		}
		if err := c.ApplyRecommendation(ctx, 0); err != nil {
			return views, err
		}
	}
	return views, nil
}

// Summary answers from the harness: the path summary is the simulated
// user's bookkeeping, not an operation an analyst waits for.
func (c *timedClient) Summary(context.Context) (*workload.SummaryView, error) {
	return &workload.SummaryView{}, nil
}

func (c *timedClient) Close(ctx context.Context) error {
	if c.rec.onClose != nil {
		c.rec.onClose(c.inner)
	}
	if c.rec.keepSessions {
		return nil
	}
	start := time.Now()
	err := c.inner.Close(ctx)
	c.record("delete", "", start, "", err != nil)
	return err
}

// runWalk drives one walk of the plan through the repo's own simulated
// user (workload.Run with a population of one): create, then step / choose
// / apply until the step budget is spent, then delete.
func runWalk(ctx context.Context, e *env, s spec, idx int, w walk, rec *recorder) error {
	inner := e.newClient(w.predicate)
	factory := func(ctx context.Context, id int) (workload.Client, error) {
		start := time.Now()
		c, err := inner(ctx, id)
		rec.add(op{Walk: idx, Kind: "create", Arg: w.predicate, Dur: time.Since(start), Bad: err != nil})
		if err != nil {
			return nil, err
		}
		return &timedClient{inner: c, rec: rec, walk: idx}, nil
	}
	// Every error the user sees — terminal, or a refusal it retries — has
	// already been recorded as a Bad operation by the wrapper.
	_, err := workload.Run(ctx, workload.Config{
		Users: 1, Seed: w.seed, StepsPerUser: w.steps, Mix: s.mix, Mode: s.mode,
	}, factory)
	return err
}

// round is what one cold repetition of the plan measured.
type round struct {
	ops    []op
	setup  time.Duration
	wall   time.Duration
	cpu    time.Duration
	allocB uint64
	// setupHeapB is the live heap once set-up is done and collected.
	setupHeapB uint64
	steps      int
	// problems are correctness failures found outside the operations (a
	// recovery that lost or truncated sessions).
	problems []string
}

// checkRecovery verifies a served round booted over exactly the seeded
// sessions: the store replayed them without truncating its log and the
// server restored every one through the engine.
func checkRecovery(e *env, want int) []string {
	var problems []string
	rec := e.store.Recovery()
	if rec.Truncated {
		problems = append(problems, fmt.Sprintf("WAL truncated at byte %d: %s", rec.TruncatedAt, rec.Reason))
	}
	if rec.Sessions != want {
		problems = append(problems, fmt.Sprintf("store recovered %d sessions, seeded %d", rec.Sessions, want))
	}
	var buf bytes.Buffer
	_ = e.srv.Registry().WritePrometheus(&buf) // writes to a buffer cannot fail
	scrape, err := workload.ParseMetrics(&buf)
	if err != nil {
		return append(problems, "parsing server metrics: "+err.Error())
	}
	if got := int(scrape.Sum("subdex_sessions_recovered_total")); got != want {
		problems = append(problems, fmt.Sprintf("server restored %d sessions, seeded %d", got, want))
	}
	return problems
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRound runs the whole plan once from cold state: fresh WAL copy, fresh
// LoadDir, fresh explorer / server / store / cluster, empty caches.
func runRound(ctx context.Context, p *prepared, r int) (*round, error) {
	walDir := ""
	if p.spec.served {
		walDir = filepath.Join(p.dir, fmt.Sprintf("wal-r%d", r))
		if err := copyDir(p.walSeed, walDir); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	start := time.Now()
	e, err := setup(ctx, p, walDir)
	if err != nil {
		return nil, fmt.Errorf("round %d setup: %w", r, err)
	}
	defer e.close()
	rd := &round{setup: time.Since(start)}
	if p.spec.served {
		rd.problems = checkRecovery(e, p.spec.seedSessions)
	}
	if p.instrument {
		e.ex.Instrument(obs.NewRegistry())
		ctx = obs.WithSink(ctx, obs.NewRingSink(256))
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start = time.Now()
	rec := &recorder{}
	for i, w := range p.plan {
		if err := runWalk(ctx, e, p.spec, i, w, rec); err != nil {
			return nil, fmt.Errorf("round %d walk %d: %w", r, i, err)
		}
	}
	rd.wall = time.Since(start)
	rd.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	rd.allocB = m1.TotalAlloc - m0.TotalAlloc
	rd.setupHeapB = m0.HeapAlloc
	rd.ops = rec.ops
	for _, o := range rd.ops {
		if o.Kind == "step" {
			rd.steps++
		}
	}
	return rd, nil
}

// reference runs the plan once on the plain in-process twin and returns
// its operations: what the served and clustered rounds must reproduce.
func reference(ctx context.Context, p *prepared) ([]op, error) {
	e, err := setup(ctx, p.local(), "")
	if err != nil {
		return nil, err
	}
	defer e.close()
	rec := &recorder{}
	for i, w := range p.plan {
		if err := runWalk(ctx, e, p.spec, i, w, rec); err != nil {
			return nil, err
		}
	}
	return rec.ops, nil
}
