// Package sessionstore persists exploration sessions. A session's
// durable form is its core.SessionSnapshot — a command log plus
// verification digests — so the store never needs the engine: it records
// creations, appended ops, shed snapshots, and deletions, and hands the
// accumulated snapshots back for the server to replay through the real
// engine on recovery.
//
// Two implementations share the same semantics: MemStore (a mirror map,
// for tests and single-process use) and FileStore (the mirror backed by
// a crash-safe append-only write-ahead log with periodic snapshot
// compaction; see filestore.go).
//
// Lock discipline: this package deliberately serializes its file writes
// under an internal writer mutex — that is the point of a WAL — but the
// hot-path fsync happens outside it, and no session or server mutex is
// ever held around store calls (the subdexvet lockblock rule enforces
// the caller side).
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

// Store is the durable session store. Implementations are safe for
// concurrent use. An op append or shed that returns nil has been made
// durable (for FileStore: written and fsynced) — the server relies on
// that to log before it responds.
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
	// Stats reports lifetime operation counts.
	Stats() Stats
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// Instruments carries the store's metric hooks. Nil counters are no-ops,
// so the zero value disables observability.
type Instruments struct {
	// Appends counts durable WAL record writes
	// (subdex_wal_appends_total).
	Appends *obs.Counter
	// Fsyncs counts WAL fsync calls (subdex_wal_fsyncs_total).
	Fsyncs *obs.Counter
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
	// Fsyncs is the number of fsync calls on the WAL file.
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

// memState is the shared mirror: the current snapshot of every stored
// session. Both implementations apply the same record semantics to it
// (see apply in wal.go), which is what makes FileStore's replay provably
// equivalent to the in-memory history.
type memState struct {
	//subdex:lockorder rank=60 innermost: the shared mirror's lock nests under every server and store lock and takes nothing itself
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

// MemStore is the in-memory Store: the mirror alone, with no backing
// file. It gives single-process deployments shed/restore semantics (the
// janitor can move idle sessions out of the serving map) without any
// durability, and is the reference implementation the WAL tests compare
// against.
type MemStore struct {
	st  *memState
	ins Instruments

	//subdex:lockorder rank=50 Stats holds it across the mirror's memState.mu, mirroring FileStore's ladder
	statsMu sync.Mutex
	stats   Stats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{st: newMemState()}
}

// Create implements Store.
func (m *MemStore) Create(id int, snap *core.SessionSnapshot) error {
	err := m.st.apply(walRecord{Kind: recCreate, ID: id, Snap: snapshotCopy(snap)})
	m.count(err)
	return err
}

// AppendOp implements Store.
func (m *MemStore) AppendOp(id, seq int, op core.SessionOp) error {
	err := m.st.apply(walRecord{Kind: recOp, ID: id, Seq: seq, Op: &op})
	m.count(err)
	return err
}

// Shed implements Store.
func (m *MemStore) Shed(id int, snap *core.SessionSnapshot) error {
	err := m.st.apply(walRecord{Kind: recShed, ID: id, Snap: snapshotCopy(snap)})
	m.count(err)
	return err
}

// Get implements Store.
func (m *MemStore) Get(id int) (*core.SessionSnapshot, bool, error) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	snap, ok := m.st.sessions[id]
	if !ok {
		return nil, false, nil
	}
	return snapshotCopy(snap), true, nil
}

// All implements Store.
func (m *MemStore) All() (map[int]*core.SessionSnapshot, int, error) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	out := make(map[int]*core.SessionSnapshot, len(m.st.sessions))
	for id, snap := range m.st.sessions {
		out[id] = snapshotCopy(snap)
	}
	return out, m.st.nextID, nil
}

// Delete implements Store.
func (m *MemStore) Delete(id int) error {
	err := m.st.apply(walRecord{Kind: recDelete, ID: id})
	m.count(err)
	return err
}

// Instrument implements Store.
func (m *MemStore) Instrument(ins Instruments) {
	m.statsMu.Lock()
	appends := m.stats.Appends
	m.ins = ins
	m.statsMu.Unlock()
	ins.Appends.Add(appends)
}

// Stats implements Store.
func (m *MemStore) Stats() Stats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	st := m.stats
	m.st.mu.Lock()
	st.Sessions = len(m.st.sessions)
	m.st.mu.Unlock()
	return st
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }

func (m *MemStore) count(err error) {
	if err != nil {
		return
	}
	m.statsMu.Lock()
	ins := m.ins
	m.stats.Appends++
	m.statsMu.Unlock()
	ins.Appends.Inc()
}

// errSeq reports an out-of-order live append — a store-usage bug, as
// opposed to the tolerated redundancies of crash replay.
func errSeq(id, seq, want int) error {
	return fmt.Errorf("sessionstore: session %d: append seq %d, want %d", id, seq, want)
}
