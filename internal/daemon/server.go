package daemon

import (
	"context"

	"subdex/internal/cluster"
	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/obs"
	"subdex/internal/server"
	"subdex/internal/sessionstore"
)

// ServerConfig is everything a hosted SubDEx server is wired from.
type ServerConfig struct {
	// Core is the engine configuration. NewServer sets its Scanner when
	// Cluster names workers.
	Core core.Config
	// Options carries admission, session lifetime and flight-recorder
	// settings. NewServer sets its Store and Registry.
	Options server.Options
	// SessionDir, when non-empty, makes sessions durable in a FileStore
	// under that directory (see server.Options.Store).
	SessionDir string
	// Cluster, when it names Workers, distributes engine scans across
	// them through a coordinator. NewServer sets its Registry.
	Cluster cluster.CoordinatorConfig
}

// Server is a server.Server together with what NewServer opened for it.
type Server struct {
	*server.Server
	// Recovery reports what opening the session store found; zero
	// without a SessionDir.
	Recovery sessionstore.RecoveryInfo

	store *sessionstore.FileStore
	coord *cluster.Coordinator
}

// NewServer is the one way a binary builds the server it hosts: it opens
// the session store when a directory is given, builds the cluster
// coordinator when workers are given, and hands both — on one registry,
// so a single /metrics scrape covers the HTTP surface, the WAL and
// subdex_cluster_* — to server.NewWithOptionsCtx. ctx bounds the
// boot-time replay of stored sessions and is the root of the
// coordinator's health probes, so it should live as long as the server.
// Close releases all three.
func NewServer(ctx context.Context, db *dataset.DB, cfg ServerConfig) (*Server, error) {
	s := &Server{}
	reg := obs.NewRegistry()
	cfg.Options.Registry = reg
	if cfg.SessionDir != "" {
		store, err := sessionstore.Open(cfg.SessionDir)
		if err != nil {
			return nil, err
		}
		s.store, s.Recovery = store, store.Recovery()
		cfg.Options.Store = store
	}
	if len(cfg.Cluster.Workers) > 0 {
		cfg.Cluster.Registry = reg
		coord, err := cluster.NewCoordinator(ctx, db, cfg.Cluster)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.coord = coord
		cfg.Core.Scanner = coord
	}
	srv, err := server.NewWithOptionsCtx(ctx, db, cfg.Core, cfg.Options)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.Server = srv
	return s, nil
}

// Close stops the server's janitor, then the coordinator's health loop,
// then closes the session store — in that order, so no shed is in
// flight when the log closes.
func (s *Server) Close() {
	if s.Server != nil {
		s.Server.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
}
