package workload

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"subdex/internal/core"
	"subdex/internal/obs"
)

// Config parameterizes a simulated-explorer population.
type Config struct {
	// Users is the population size (default 1).
	Users int
	// Seed drives every user's decision stream; user i derives its own
	// independent streams from Seed and i, so populations are reproducible
	// regardless of goroutine interleaving (default 1).
	Seed int64
	// StepsPerUser bounds each user's walk in executed step displays
	// (default 8). Under a Duration the budget is effectively unlimited
	// unless set explicitly.
	StepsPerUser int
	// Duration bounds the whole run in wall-clock time (soak mode);
	// 0 runs until every user exhausts its step budget.
	Duration time.Duration
	// Ramp staggers user starts uniformly across this interval, the
	// load-generator warm-up (0 starts everyone at once).
	Ramp time.Duration
	// Think is the mean think time between operations (exponentially
	// distributed, capped at 4×); 0 disables pacing entirely — think
	// times come from a separate RNG stream, so enabling them never
	// changes which path a seed produces.
	Think time.Duration
	// Mix weighs the operation repertoire (zero value selects DefaultMix).
	Mix Mix
	// AutoLen is the auto-pilot burst length (default 3).
	AutoLen int
	// Mode is the exploration mode sessions run in (default
	// RecommendationPowered).
	Mode core.Mode
	// Predicate optionally starts every session at a selection.
	Predicate string
	// Record retains per-step golden-trace records on each UserResult.
	// Leave it off for soak runs (it accumulates memory per step).
	Record bool
	// Flight, when non-nil, receives one client-side wide event per
	// step-producing call (the client half of trace correlation).
	Flight *obs.FlightRecorder
	// ExemplarK keeps the K slowest step calls — trace IDs and EXPLAIN
	// profiles included — across the population (0 disables).
	ExemplarK int
}

func (c Config) normalized() Config {
	if c.Users <= 0 {
		c.Users = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StepsPerUser <= 0 {
		if c.Duration > 0 {
			c.StepsPerUser = 1 << 30 // soak: the clock is the budget
		} else {
			c.StepsPerUser = 8
		}
	}
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix()
	}
	if c.AutoLen < 2 {
		c.AutoLen = 3
	}
	return c
}

// Result aggregates a finished run.
type Result struct {
	// Users holds each user's outcome, indexed by user id.
	Users []*UserResult
	// Wall is the run's wall-clock duration.
	Wall time.Duration
	// Steps, Degraded, and Errors aggregate across the population.
	Steps    int
	Degraded int
	Errors   ErrorCounts
	// Exemplars are the population's ExemplarK slowest step calls, sorted
	// by descending duration (empty unless Config.ExemplarK > 0).
	Exemplars []Exemplar
}

// Failures lists the terminal per-user errors ("" entries excluded).
func (r *Result) Failures() []string {
	var out []string
	for _, u := range r.Users {
		if u != nil && u.Failure != "" {
			out = append(out, u.Failure)
		}
	}
	return out
}

// ClientFactory mints the client of one virtual user. The factory runs on
// the user's goroutine after its ramp delay, so session creation load is
// staggered like the rest of the traffic.
type ClientFactory func(ctx context.Context, userID int) (Client, error)

// InprocFactory returns a factory minting in-process clients over one
// shared explorer — every user gets its own session, all sessions share
// the explorer's caches (which are proven to return bit-identical results
// to uncached computation, so sharing never perturbs paths).
func InprocFactory(ex *core.Explorer, mode core.Mode, predicate string) ClientFactory {
	return func(_ context.Context, _ int) (Client, error) {
		return NewInprocClient(ex, mode, predicate)
	}
}

// HTTPFactory returns a factory minting HTTP clients against a server
// root URL. A nil http.Client selects http.DefaultClient.
func HTTPFactory(base string, hc *http.Client, mode core.Mode, predicate string) ClientFactory {
	return func(ctx context.Context, _ int) (Client, error) {
		return NewHTTPClient(ctx, base, hc, ModeString(mode), predicate)
	}
}

// HTTPRetryFactory is HTTPFactory with a transport retry policy: clients
// tag mutating requests with deterministic op ids and ride connection
// failures out, so a population survives a server kill-and-restart
// without perturbing any user's seeded path.
func HTTPRetryFactory(base string, hc *http.Client, mode core.Mode, predicate string, retry Retry) ClientFactory {
	return func(ctx context.Context, _ int) (Client, error) {
		return NewHTTPClientRetry(ctx, base, hc, ModeString(mode), predicate, retry)
	}
}

// ModeString renders a core.Mode as the server's wire token.
func ModeString(m core.Mode) string { return m.Token() }

// Run drives a population of cfg.Users virtual users against clients
// minted by newClient and returns the aggregated outcome. The context
// bounds the whole run (on top of cfg.Duration); hitting either deadline
// is a clean stop, not an error. Run only fails on configuration-level
// problems; per-user terminal errors are reported in the result.
func Run(ctx context.Context, cfg Config, newClient ClientFactory) (*Result, error) {
	cfg = cfg.normalized()
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	start := time.Now()
	results := make([]*UserResult, cfg.Users)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Users; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = runUser(ctx, cfg, id, newClient)
		}(i)
	}
	wg.Wait()
	res := &Result{Users: results, Wall: time.Since(start)}
	lists := make([][]Exemplar, 0, len(results))
	for _, u := range results {
		res.Steps += u.Steps
		res.Degraded += u.Degraded
		res.Errors.add(u.Errors)
		lists = append(lists, u.Exemplars)
	}
	res.Exemplars = mergeExemplars(lists, cfg.ExemplarK)
	return res, nil
}

// runUser executes one user's full lifecycle: ramp delay, client
// creation, the closed loop, teardown.
func runUser(ctx context.Context, cfg Config, id int, newClient ClientFactory) *UserResult {
	if cfg.Ramp > 0 && cfg.Users > 1 {
		delay := time.Duration(int64(cfg.Ramp) * int64(id) / int64(cfg.Users))
		if !sleepCtx(ctx, delay) {
			return &UserResult{ID: id}
		}
	}
	c, err := newClient(ctx, id)
	if err != nil {
		res := &UserResult{ID: id}
		if ctx.Err() == nil {
			switch classify(err) {
			case errAdmission:
				res.Errors.Admission++
			case errBusy:
				res.Errors.Busy++
			case errTimeout:
				res.Errors.Timeout++
			default:
				res.Errors.Other++
				res.Failure = err.Error()
			}
		}
		return res
	}
	u := newUser(cfg, id)
	res := u.run(ctx, c)
	// Teardown must survive an expired soak deadline: DELETE frees the
	// server-side session so admission capacity is returned.
	_ = c.Close(context.WithoutCancel(ctx))
	return res
}

// newUser derives user id's deterministic state from the run config. The
// two RNG streams get well-separated seeds so the ops stream is identical
// whether or not think pacing is enabled.
func newUser(cfg Config, id int) *user {
	base := cfg.Seed + int64(id)<<20
	return &user{
		id:        id,
		steps:     cfg.StepsPerUser,
		mix:       cfg.Mix,
		autoLen:   cfg.AutoLen,
		guided:    cfg.Mode != core.UserDriven,
		think:     cfg.Think,
		record:    cfg.Record,
		ops:       rand.New(rand.NewSource(base*2 + 1)),
		thinkRN:   rand.New(rand.NewSource(base*2 + 2)),
		base:      base,
		flight:    cfg.Flight,
		exemplarK: cfg.ExemplarK,
	}
}
