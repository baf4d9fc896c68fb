package daemon

import (
	"context"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/server"
	"subdex/internal/sessionstore"
)

// ServerConfig is everything a hosted SubDEx server is wired from.
type ServerConfig struct {
	// Core is the engine configuration.
	Core core.Config
	// Options carries admission, session lifetime and flight-recorder
	// settings. NewServer sets its Store.
	Options server.Options
	// SessionDir, when non-empty, makes sessions durable in a FileStore
	// under that directory (see server.Options.Store).
	SessionDir string
}

// Server is a server.Server together with the store NewServer opened for
// it.
type Server struct {
	*server.Server
	// Recovery reports what opening the session store found; zero
	// without a SessionDir.
	Recovery sessionstore.RecoveryInfo

	store *sessionstore.FileStore
}

// NewServer is the one way a binary builds the server it hosts: it opens
// the session store when a directory is given and hands it to
// server.NewWithOptionsCtx, whose registry covers the HTTP surface and the
// WAL in one /metrics scrape. ctx bounds the boot-time replay of stored
// sessions. Close releases both.
func NewServer(ctx context.Context, db *dataset.DB, cfg ServerConfig) (*Server, error) {
	s := &Server{}
	if cfg.SessionDir != "" {
		store, err := sessionstore.Open(cfg.SessionDir)
		if err != nil {
			return nil, err
		}
		s.store, s.Recovery = store, store.Recovery()
		cfg.Options.Store = store
	}
	srv, err := server.NewWithOptionsCtx(ctx, db, cfg.Core, cfg.Options)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.Server = srv
	return s, nil
}

// Close stops the server's janitor, then closes the session store — in
// that order, so no shed is in flight when the log closes.
func (s *Server) Close() {
	if s.Server != nil {
		s.Server.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
}
