// Command subdexd serves the SDE engine over HTTP — the backend the paper's
// HTML5 UI (Figure 5) talks to. Sessions are created and driven with JSON:
//
//	subdexd -generate yelp -scale 0.05 -addr :8080
//
//	curl -X POST localhost:8080/sessions -d '{"mode":"rp"}'
//	curl localhost:8080/sessions/1/step
//	curl -X POST localhost:8080/sessions/1/apply -d '{"recommendation":1}'
//	curl -X POST localhost:8080/sessions/1/apply -d '{"predicate":"items.cuisine = '\''japanese'\''"}'
//	curl localhost:8080/sessions/1/summary
//	curl localhost:8080/metrics
//	curl localhost:8080/debug/spans
//	curl localhost:8080/debug/flightrecorder?trace=<id>
//
// With -debug-addr, net/http/pprof is served on a separate listener
// (kept off the public address on purpose):
//
//	subdexd -generate yelp -addr :8080 -debug-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to -shutdown-timeout.
//
// Robustness knobs: -step-timeout bounds each step's compute (past the
// first engine phase the step degrades to an anytime result with
// "degraded": true; before it the request answers 504), -max-sessions
// caps live sessions (429 + Retry-After on breach), and -session-ttl
// evicts idle sessions. The listener itself runs with read-header, read
// and idle timeouts so stalled clients cannot pin connections.
//
// With -session-dir, sessions are durable: every applied operation is
// appended to a crash-safe write-ahead log under that directory before
// the response is sent, a restarted daemon replays the log through the
// engine and resumes every session exactly (same ids, same step
// digests), and the idle janitor sheds sessions to the store instead of
// destroying them — the next request restores them transparently:
//
//	subdexd -generate yelp -scale 0.05 -addr :8080 -session-dir /var/lib/subdex
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"subdex"
	"subdex/internal/daemon"
	"subdex/internal/server"
)

func main() {
	var (
		data     = flag.String("data", "", "CSV directory written by datagen")
		generate = flag.String("generate", "", "generate a synthetic dataset: demo | movielens | yelp | hotels")
		scale    = flag.Float64("scale", 0.05, "scale for -generate")
		seed     = flag.Int64("seed", 1, "seed for -generate")
		addr     = flag.String("addr", ":8080", "listen address")
		k        = flag.Int("k", 3, "rating maps per step")
		o        = flag.Int("o", 3, "recommendations per step")
		l        = flag.Int("l", 3, "pruning-diversity factor")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		drain    = flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown drain timeout")

		stepTimeout = flag.Duration("step-timeout", 0,
			"per-step compute deadline; past the first phase boundary the step degrades to an anytime result, before it the request answers 504 (0 = unlimited)")
		maxSessions = flag.Int("max-sessions", 0,
			"admission cap on live sessions; breaches answer 429 with Retry-After (0 = unlimited)")
		sessionTTL = flag.Duration("session-ttl", 0,
			"evict sessions idle longer than this (0 = never)")
		flightDir = flag.String("flight-dir", "",
			"directory for flight-recorder dumps on 5xx responses and degraded steps; the live ring is always served at /debug/flightrecorder (empty = dumps disabled)")
		sessionDir = flag.String("session-dir", "",
			"directory for the durable session store (write-ahead log + snapshots); on boot every stored session is replayed through the engine and resumed exactly, and idle sessions are shed here instead of destroyed (empty = sessions are process-lifetime only)")
	)
	flag.Parse()

	db, err := daemon.LoadDataset(*data, *generate, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "subdexd:", err)
		os.Exit(1)
	}
	cfg := subdex.DefaultConfig()
	cfg.K, cfg.O, cfg.L = *k, *o, *l
	cfg.StepTimeout = *stepTimeout

	// One constructor opens the store and builds the server over it
	// (internal/daemon.NewServer).
	srv, err := daemon.NewServer(context.Background(), db, daemon.ServerConfig{
		Core: cfg,
		Options: server.Options{
			MaxSessions: *maxSessions,
			SessionTTL:  *sessionTTL,
			FlightDir:   *flightDir,
		},
		SessionDir: *sessionDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "subdexd:", err)
		os.Exit(1)
	}
	defer srv.Close()
	if rec := srv.Recovery; rec.Records > 0 || rec.Truncated {
		fmt.Printf("subdexd: session store %s: %d records replayed, %d sessions recovered", *sessionDir, rec.Records, rec.Sessions)
		if rec.Truncated {
			fmt.Printf(" (corrupt tail truncated at byte %d: %s)", rec.TruncatedAt, rec.Reason)
		}
		fmt.Println()
	}
	s := db.Stats()
	fmt.Printf("subdexd: serving %s (%d reviewers, %d items, %d ratings) on %s\n",
		s.Name, s.NumReviewers, s.NumItems, s.NumRatings, *addr)

	if err := daemon.Serve(context.Background(), "subdexd", *addr, *debug, srv.Handler(), *drain); err != nil {
		fmt.Fprintln(os.Stderr, "subdexd:", err)
		os.Exit(1)
	}
	fmt.Println("subdexd: bye")
}
