// Package sessionstore persists exploration sessions. A session's
// durable form is its core.SessionSnapshot — a command log plus
// verification digests — so the store never needs the engine: it records
// creations, appended ops, shed snapshots, and deletions, and hands the
// accumulated snapshots back for the server to replay through the real
// engine on recovery.
//
// The store is FileStore: an in-memory mirror of every session's
// snapshot backed by a crash-safe append-only write-ahead log with
// periodic snapshot compaction (see filestore.go). The server holds it as
// a Store, the methods it calls, so that its tests can wrap the store in a
// fault injector.
//
// Lock discipline: this package deliberately serializes its file writes
// under an internal writer mutex — that is the point of a WAL — but the
// hot-path data sync happens outside it. The server calls the store's
// writes with no session or server mutex held, and holds its session-map
// mutex only around Get, a mirror read. No check enforces the caller
// side: the subdexvet lockblock rule is intraprocedural, so it flags os
// file I/O made in the function that holds the lock but not a call
// through Store.
package sessionstore

import (
	"errors"
	"fmt"
	"sync"

	"subdex/internal/core"
	"subdex/internal/obs"
)

// ErrStaleShed reports a rejected Shed: between the caller snapshotting
// the session and the shed reaching the store, the store's record moved
// past it — an acknowledged op was appended (a restored copy of the
// session kept going) or the session was deleted. Accepting the shed
// would erase that newer durable state, so the store refuses; the caller
// must drop its snapshot, which is the correct outcome, not a failure.
var ErrStaleShed = errors.New("sessionstore: stale shed")

// Store is the durable session store as the server calls it; FileStore
// is the one implementation. It is safe for concurrent use. An op append
// or shed that returns nil has been written and synced — the server
// relies on that to log before it responds.
type Store interface {
	// Create durably records a new session under id with its
	// creation-time base snapshot (no ops yet).
	Create(id int, snap *core.SessionSnapshot) error
	// AppendOp durably appends op as session id's seq-th op (0-based;
	// seq must equal the number of ops already recorded).
	AppendOp(id, seq int, op core.SessionOp) error
	// Shed replaces session id's record with a full snapshot, as the
	// idle janitor does when it evicts the in-memory copy.
	Shed(id int, snap *core.SessionSnapshot) error
	// Get returns session id's snapshot (a private copy), or ok=false.
	Get(id int) (snap *core.SessionSnapshot, ok bool, err error)
	// All returns every stored session (private copies) plus the next
	// session id to allocate — one past the highest id ever created,
	// deletions included, so recovered servers never reuse an id.
	All() (map[int]*core.SessionSnapshot, int, error)
	// Delete removes session id. Deleting an unknown id is not an error.
	Delete(id int) error
	// Instrument attaches observability counters. Counts accumulated
	// before the call (e.g. during WAL replay in open) are added to the
	// counters immediately.
	Instrument(ins Instruments)
	// Recovery reports what opening the store found in its log, which
	// the server flight-records when the log had a corrupt tail.
	Recovery() RecoveryInfo
}

// Instruments carries the store's metric hooks. Nil counters are no-ops,
// so the zero value disables observability.
type Instruments struct {
	// Appends counts durable WAL record writes
	// (subdex_wal_appends_total).
	Appends *obs.Counter
	// ReplayRecords counts WAL records applied during open-time replay
	// (subdex_wal_replay_records_total).
	ReplayRecords *obs.Counter
	// Truncations counts corrupt-tail truncations during open-time
	// replay (subdex_wal_truncations_total).
	Truncations *obs.Counter
}

// Stats are lifetime counts, exposed for tests and recovery reports.
type Stats struct {
	// Appends is the number of durable record writes.
	Appends int64
	// Fsyncs is the number of fsync/fdatasync calls on the WAL file.
	Fsyncs int64
	// ReplayRecords is the number of records applied during replay.
	ReplayRecords int64
	// ReplaySkipped is the number of well-formed but semantically
	// redundant records skipped during replay (duplicate seq, op for an
	// unknown or deleted session).
	ReplaySkipped int64
	// Truncations is the number of corrupt-tail truncations performed.
	Truncations int64
	// Compactions is the number of snapshot compactions performed.
	Compactions int64
	// Sessions is the number of sessions currently stored.
	Sessions int
}

// memState is the store's mirror: the current snapshot of every stored
// session. Live appends and open-time replay apply the same record
// semantics to it (see apply in wal.go), which is what makes FileStore's
// replay provably equivalent to the history it logged.
type memState struct {
	//subdex:lockorder rank=60 innermost: the mirror's lock nests under every server and store lock and takes nothing itself
	mu       sync.Mutex
	sessions map[int]*core.SessionSnapshot
	nextID   int
}

func newMemState() *memState {
	return &memState{sessions: make(map[int]*core.SessionSnapshot), nextID: 1}
}

// snapshotCopy deep-copies the mutable parts of a snapshot so callers
// and the mirror never alias each other's op slices.
func snapshotCopy(s *core.SessionSnapshot) *core.SessionSnapshot {
	if s == nil {
		return nil
	}
	c := *s
	c.Ops = append([]core.SessionOp(nil), s.Ops...)
	if s.Final != nil {
		f := *s.Final
		c.Final = &f
	}
	return &c
}

// errSeq reports an out-of-order live append — a store-usage bug, as
// opposed to the tolerated redundancies of crash replay.
func errSeq(id, seq, want int) error {
	return fmt.Errorf("sessionstore: session %d: append seq %d, want %d", id, seq, want)
}
