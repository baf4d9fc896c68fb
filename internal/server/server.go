// Package server exposes the SDE engine over HTTP with JSON payloads — the
// role the paper's web UI backend plays (Figure 4: the UI talks to the SDE
// Engine, which drives the RM-Set Generator and Recommendation Builder).
// A thin REST surface manages exploration sessions:
//
//	POST /sessions                {"mode":"rp"}             -> {"id":...}
//	GET  /sessions/{id}/step                                -> the step display
//	POST /sessions/{id}/apply     {"predicate":"..."}        -> move the session
//	POST /sessions/{id}/apply     {"recommendation":1}       -> follow rec #1
//	POST /sessions/{id}/apply     {"back":true}              -> previous selection
//	GET  /sessions/{id}/summary                              -> path summary
//	DELETE /sessions/{id}                                    -> drop the session
//	GET  /sessions/{id}/maps/{n}/vega                        -> Vega-Lite spec of map n
//	GET  /healthz
//	GET  /metrics                                            -> Prometheus text format
//	GET  /debug/spans?limit=N&trace=ID                       -> recent span trees (JSON)
//	GET  /debug/flightrecorder?limit=N&trace=ID              -> recent wide events (JSON)
//
// The package reads along the request path, one file per concern:
// routes.go (route table and middleware), sessions.go (the session
// table: live map, durable store, eviction, boot recovery), step.go (the
// session handlers and the commit path step and apply share), render.go
// (JSON shapes), debug.go (health, metrics, /debug). This file holds the
// constructor, the janitor and the telemetry everything reports into.
package server

import (
	"context"
	"sync"
	"time"

	"subdex/internal/buildinfo"
	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/obs"
	"subdex/internal/sessionstore"
)

// spanRingSize bounds the /debug/spans buffer.
const spanRingSize = 64

// Options configure the server's admission-control and session-lifecycle
// layer. The zero value disables all limits (the library-embedding
// default); subdexd wires its flags here.
type Options struct {
	// MaxSessions caps concurrently live sessions; 0 = unlimited. A POST
	// /sessions on a full server answers 429 with a Retry-After header.
	MaxSessions int
	// SessionTTL evicts sessions idle (no request touching them) for
	// longer than this; 0 disables eviction. Evictions decrement
	// subdex_sessions_in_flight and bump subdex_sessions_evicted_total.
	SessionTTL time.Duration
	// FlightDir enables triggered flight-recorder dumps (on 5xx responses
	// and degraded steps, rate-limited per reason) into the directory.
	// Empty keeps the ring recording and served at /debug/flightrecorder
	// but writes nothing to disk.
	FlightDir string
	// Store makes sessions durable: every committed operation is logged
	// to it before the response is sent, idle sessions are shed to it
	// (and transparently restored on their next request) instead of
	// destroyed, and stored sessions are recovered — replayed through
	// the real engine — at construction. Nil keeps the pre-durability
	// behavior: sessions live and die with the process.
	Store sessionstore.Store

	// Test seams, set only by this package's tests. janitorInterval
	// overrides the eviction sweep cadence (0 picks SessionTTL/4 clamped to
	// [1s, 1min]); clock overrides time.Now for the idle-TTL bookkeeping and
	// the flight recorder's rate limit; flightMinInterval overrides that
	// per-reason rate limit (0: 30s).
	janitorInterval   time.Duration
	clock             func() time.Time
	flightMinInterval time.Duration
}

// Server owns an explorer, its session table, and the observability
// surface (metrics registry + recent-span ring + flight recorder).
type Server struct {
	ex    *core.Explorer
	reg   *obs.Registry
	spans *obs.RingSink
	info  buildinfo.Info
	opts  Options
	*telemetry
	table *sessionTable

	stopOnce sync.Once
	stop     chan struct{}
	// janitorDone is closed by the janitor goroutine on exit; nil when no
	// janitor was started. Close blocks on it so that after Close returns
	// no EvictIdle/Shed can still be running against a store the caller
	// is about to tear down.
	janitorDone chan struct{}
}

// NewWithOptionsCtx builds a server over a frozen database: the explorer,
// its session table and the observability surface. The server instruments
// the explorer with a registry of its own (exposed at /metrics and via
// Registry). The zero Options has no admission limits.
// When opts.SessionTTL > 0 a janitor goroutine sweeps idle sessions; stop
// it with Close. ctx bounds the boot-time session recovery a durable Store
// triggers (every stored session is replayed through the engine before the
// first request is served).
func NewWithOptionsCtx(ctx context.Context, db *dataset.DB, cfg core.Config, opts Options) (*Server, error) {
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	ex.Instrument(reg)
	now := opts.clock
	if now == nil {
		now = time.Now
	}
	info := buildinfo.Get()
	s := &Server{
		ex:        ex,
		reg:       reg,
		spans:     obs.NewRingSink(spanRingSize),
		info:      info,
		opts:      opts,
		telemetry: newTelemetry(reg, opts, now),
		stop:      make(chan struct{}),
	}
	// The standard build-info idiom: a constant-1 gauge whose labels carry
	// the identity, so scrapes and load-test artifacts can say exactly
	// which binary they measured.
	reg.Gauge("subdex_build_info",
		"Build metadata of the running binary (constant 1; identity in the labels).",
		obs.L("version", info.Version),
		obs.L("commit", info.Commit),
		obs.L("go_version", info.GoVersion)).Set(1)
	if s.table, err = newSessionTable(ctx, ex, reg, opts, now, s.telemetry); err != nil {
		return nil, err
	}
	if opts.SessionTTL > 0 {
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s, nil
}

// telemetry is what the handlers and the session table both report into:
// the server's own instruments, resolved once at construction, and the
// flight recorder.
type telemetry struct {
	flight *obs.FlightRecorder

	httpInFlight      *obs.Gauge
	sessionsLive      *obs.Gauge
	sessionsEvicted   *obs.Counter
	admissionRejected *obs.Counter
	busyRejected      *obs.Counter
	stepTimeouts      *obs.Counter
	flightDumps       *obs.Counter
	flightSuppressed  *obs.Counter
	sessionsShed      *obs.Counter
	sessionsRestored  *obs.Counter
	sessionsRecovered *obs.Counter
	walFailures       *obs.Counter
}

func newTelemetry(reg *obs.Registry, opts Options, now func() time.Time) *telemetry {
	return &telemetry{
		flight: obs.NewFlightRecorder(obs.FlightOptions{
			Dir:         opts.FlightDir,
			MinInterval: opts.flightMinInterval,
			Clock:       now,
		}),
		httpInFlight: reg.Gauge("subdex_http_in_flight_requests",
			"HTTP requests currently being served."),
		sessionsLive: reg.Gauge("subdex_sessions_in_flight",
			"Exploration sessions currently held by the server."),
		sessionsEvicted: reg.Counter("subdex_sessions_evicted_total",
			"Idle sessions evicted by the TTL janitor."),
		admissionRejected: reg.Counter("subdex_admission_rejected_total",
			"Session creations rejected by the max-sessions admission cap."),
		busyRejected: reg.Counter("subdex_session_busy_rejections_total",
			"Step/apply requests rejected because the session was mid-computation."),
		stepTimeouts: reg.Counter("subdex_step_timeouts_total",
			"Steps aborted by their deadline before any phase boundary (504s)."),
		flightDumps: reg.Counter("subdex_flight_dumps_total",
			"Flight-recorder dumps written to disk."),
		flightSuppressed: reg.Counter("subdex_flight_dumps_suppressed_total",
			"Flight-recorder triggers suppressed by the per-reason rate limit."),
		sessionsShed: reg.Counter("subdex_sessions_shed_total",
			"Idle sessions shed to the durable store by the TTL janitor."),
		sessionsRestored: reg.Counter("subdex_sessions_restored_total",
			"Sessions transparently restored from the durable store on request."),
		sessionsRecovered: reg.Counter("subdex_sessions_recovered_total",
			"Sessions recovered from the durable store at boot."),
		walFailures: reg.Counter("subdex_wal_append_failures_total",
			"Operations that committed in memory but failed to persist (the request answered 500)."),
	}
}

// flightEvent records one wide event in the flight ring and, when
// trigger names a dump reason, fires that trigger.
func (t *telemetry) flightEvent(trigger string, ev *obs.WideEvent) {
	t.flight.Record(ev)
	if trigger != "" {
		t.flightTrigger(trigger)
	}
}

// flightTrigger fires a rate-limited flight-recorder dump and keeps the
// dump/suppression counters — the one count of both — in step. A dump
// that fails to write counts as neither: its error is recorded in the
// ring as a wide event instead, where /debug/flightrecorder shows it, and
// the reason stays rate-limited like a written one. With no FlightDir
// configured it is free.
func (t *telemetry) flightTrigger(reason string) {
	if !t.flight.DumpsEnabled() {
		return
	}
	switch path, err := t.flight.Trigger(reason); {
	case err != nil:
		t.flight.Record(obs.NewWideEvent().
			Set("op", "flight_dump").
			Set("reason", reason).
			Set("error", err.Error()))
	case path != "":
		t.flightDumps.Inc()
	default:
		t.flightSuppressed.Inc()
	}
}

// Flight exposes the server's flight recorder so embedders (sdeload,
// tests) can read the ring its requests feed and fire their own triggers
// (e.g. an SLO breach).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Registry exposes the server's metrics registry, e.g. for registering
// process-level gauges next to the engine metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close stops the TTL janitor (if any) and waits for it to exit, so no
// eviction or shed is still touching the session store once Close
// returns. It does not tear down live sessions; the process owns their
// lifetime from here.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.janitorDone != nil {
		<-s.janitorDone
	}
}

// EvictIdle removes every session idle for longer than SessionTTL (see
// sessionTable.evictIdle) and returns how many left memory. The janitor
// calls this on its interval; tests call it directly with a fake clock.
func (s *Server) EvictIdle() int { return s.table.evictIdle() }

// janitor periodically evicts idle sessions until Close.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	iv := s.opts.janitorInterval
	if iv <= 0 {
		iv = min(max(s.opts.SessionTTL/4, time.Second), time.Minute)
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.EvictIdle()
		}
	}
}
