// Package daemon is the process skeleton the SubDEx binaries share: the
// dataset named by the -data / -generate flag pair, and the listen →
// signal → drain life of an HTTP daemon, whatever handler it serves.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"subdex/internal/dataset"
	"subdex/internal/gen"
)

// LoadDataset resolves the -data / -generate flag pair: a CSV directory
// written by datagen (with the multi-valued attribute declarations of the
// shipped datasets), or a generator by name (gen.ByName).
func LoadDataset(data, generate string, scale float64, seed int64) (*dataset.DB, error) {
	switch {
	case data != "":
		kinds := map[string]dataset.Kind{
			"genre": dataset.MultiValued, "cuisine": dataset.MultiValued,
			"amenity": dataset.MultiValued,
		}
		return dataset.LoadDir(data, "loaded", kinds)
	case generate != "":
		return gen.ByName(generate, gen.Config{Seed: seed, Scale: scale})
	default:
		return nil, errors.New("one of -data or -generate is required")
	}
}

// Serve runs h on addr until ctx is cancelled or the process receives
// SIGINT/SIGTERM, then drains in-flight requests for up to drain and
// returns nil. With debugAddr set, net/http/pprof is served on that
// second listener (kept off the public address on purpose). A listener
// that cannot start or dies — a bound port — ends Serve with its error.
// name prefixes the progress lines.
func Serve(ctx context.Context, name, addr, debugAddr string, h http.Handler, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Hardened listener: slow or stalled clients cannot hold connections
	// (and their goroutines) open indefinitely. WriteTimeout is left
	// unset on purpose — legitimate steps may run long when no
	// -step-timeout is configured; response lifetime is bounded by the
	// step deadline instead.
	servers := []*http.Server{{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}}
	if debugAddr != "" {
		servers = append(servers, &http.Server{Addr: debugAddr, Handler: pprofMux(),
			ReadHeaderTimeout: 5 * time.Second})
		fmt.Printf("%s: pprof on http://%s/debug/pprof/\n", name, debugAddr)
	}
	errCh := make(chan error, len(servers)) // one send per listener
	for _, hs := range servers {
		go func() { errCh <- hs.ListenAndServe() }()
	}

	var err error
	running := len(servers)
	select {
	case <-ctx.Done():
		fmt.Printf("%s: shutdown signal received, draining...\n", name)
	case err = <-errCh: // nothing has called Shutdown yet, so this is a real failure
		running--
	}
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	for _, hs := range servers {
		if serr := hs.Shutdown(shutdownCtx); serr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
	}
	for ; running > 0; running-- {
		<-errCh // http.ErrServerClosed: Shutdown above ended it
	}
	return err
}

// pprofMux wires the net/http/pprof handlers onto a private mux, so the
// profiling surface never rides the public address.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
