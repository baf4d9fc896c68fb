// Command subdexworker serves cluster partition scans over one frozen
// copy of a dataset — the worker half of the distributed engine. A
// coordinator-enabled subdexd (see its -cluster-workers flag) ships
// record ranges here and merges the checksummed partial-accumulator
// frames deterministically, so a 3-node cluster answers bit-identically
// to a single process.
//
//	subdexworker -generate yelp -scale 0.05 -seed 7 -addr :9101
//
// The worker must be configured identically to the coordinator —
// same dataset flags, same -k/-o/-l — because both sides compare
// engine-config fingerprints and refuse to mix (409 on mismatch).
// The worker prints its fingerprint at boot for eyeballing.
//
// Surface: POST /cluster/scan, GET /healthz, GET /metrics
// (subdex_cluster_worker_*), and with -debug-addr a private pprof
// listener. Shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"subdex"
	"subdex/internal/cluster"
	"subdex/internal/core"
	"subdex/internal/daemon"
	"subdex/internal/obs"
)

func main() {
	var (
		data     = flag.String("data", "", "CSV directory written by datagen")
		generate = flag.String("generate", "", "generate a synthetic dataset: demo | movielens | yelp | hotels")
		scale    = flag.Float64("scale", 0.05, "scale for -generate")
		seed     = flag.Int64("seed", 1, "seed for -generate")
		addr     = flag.String("addr", ":9101", "listen address")
		k        = flag.Int("k", 3, "rating maps per step (must match the coordinator)")
		o        = flag.Int("o", 3, "recommendations per step (must match the coordinator)")
		l        = flag.Int("l", 3, "pruning-diversity factor (must match the coordinator)")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		drain    = flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown drain timeout")
	)
	flag.Parse()

	db, err := daemon.LoadDataset(*data, *generate, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "subdexworker:", err)
		os.Exit(1)
	}
	cfg := subdex.DefaultConfig()
	cfg.K, cfg.O, cfg.L = *k, *o, *l
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "subdexworker:", err)
		os.Exit(1)
	}
	worker := cluster.NewWorker(ex, cluster.WorkerOptions{Registry: obs.NewRegistry()})
	s := db.Stats()
	fmt.Printf("subdexworker: serving %s (%d ratings) on %s\n", s.Name, s.NumRatings, *addr)
	fmt.Printf("subdexworker: engine fingerprint %s\n", worker.Fingerprint())

	if err := daemon.Serve(context.Background(), "subdexworker", *addr, *debug, worker.Handler(), *drain); err != nil {
		fmt.Fprintln(os.Stderr, "subdexworker:", err)
		os.Exit(1)
	}
	fmt.Println("subdexworker: bye")
}
