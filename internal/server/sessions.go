// The session table: the live session map, the durable store behind it,
// idle eviction and boot recovery; whether a store exists is decided
// here and nowhere else. Store appends, sheds and deletes run outside
// sessionTable.mu and every sessionEntry's mu (lockblock), and a failed
// one is counted in the branch that detects it and leaves as a refusal
// built there, so the count precedes the answer
// (TestStoreFaultIsNeverSilent).

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"subdex/internal/core"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/sessionstore"
)

// sessionEntry wraps one live session with its own lock: all computation
// on a session (step, apply, summary, vega) serializes on entry.mu, so a
// slow step on one session never blocks the rest of the server. The
// table's global mu guards only the sessions map and lastUsed.
type sessionEntry struct {
	//subdex:lockorder rank=20 per-session compute lock: taken after sessionTable.mu (janitor TryLock), before any store append
	mu   sync.Mutex // serializes computation on this session
	sess *core.Session
	// lastUsed is guarded by sessionTable.mu (not entry.mu): the janitor
	// reads it while deciding evictions without taking the compute lock.
	lastUsed time.Time
	// appending pins the entry from the moment commit unlocks mu until the
	// committed op's log append has landed. The append runs outside mu
	// (lockblock), and without the pin that window lets the janitor
	// snapshot the session with the op and shed it — the store then holds
	// seq N when AppendOp(N) arrives and a durable op answers 500 — or
	// lets a DELETE or a second commit overtake the append. Set under mu,
	// cleared without it.
	appending atomic.Bool
}

// tryLock takes mu for a caller that needs the session quiescent: no
// request computing on it and no committed op still on its way to the log.
func (e *sessionEntry) tryLock() bool {
	if !e.mu.TryLock() {
		return false
	}
	if e.appending.Load() {
		e.mu.Unlock()
		return false
	}
	return true
}

// sessionTable owns the server's sessions: which are live, which ids are
// taken, and — when a store is configured — their durable copies.
type sessionTable struct {
	ex    *core.Explorer
	store sessionstore.Store // nil: sessions live and die with the process
	now   func() time.Time
	max   int           // Options.MaxSessions
	ttl   time.Duration // Options.SessionTTL
	tel   *telemetry

	//subdex:lockorder rank=10 outermost: guards the session map; held across store.Get during restore, so every store lock ranks above it
	mu       sync.Mutex
	sessions map[int]*sessionEntry
	// deleting holds a refcount of in-flight DELETEs per session id,
	// set in the same critical section that removes the map entry and
	// cleared after the durable delete lands. lookup refuses to install
	// while it is nonzero, so a concurrent restore can never resurrect a
	// session mid-delete (see remove).
	deleting map[int]int
	nextID   int
}

// newSessionTable builds the table and, with a durable store, recovers
// every stored session into it before returning.
func newSessionTable(ctx context.Context, ex *core.Explorer, reg *obs.Registry, opts Options,
	now func() time.Time, tel *telemetry) (*sessionTable, error) {
	t := &sessionTable{
		ex:       ex,
		store:    opts.Store,
		now:      now,
		max:      opts.MaxSessions,
		ttl:      opts.SessionTTL,
		tel:      tel,
		sessions: make(map[int]*sessionEntry),
		deleting: make(map[int]int),
		nextID:   1,
	}
	if t.store == nil {
		return t, nil
	}
	t.store.Instrument(sessionstore.Instruments{
		Appends: reg.Counter("subdex_wal_appends_total",
			"Durable records appended to the session write-ahead log."),
		Fsyncs: reg.Counter("subdex_wal_fsyncs_total",
			"fsync calls on the session write-ahead log."),
		ReplayRecords: reg.Counter("subdex_wal_replay_records_total",
			"Write-ahead-log records applied during open-time replay."),
		Truncations: reg.Counter("subdex_wal_truncations_total",
			"Corrupt write-ahead-log tails truncated during open-time replay."),
	})
	if err := t.recover(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// recover resumes every stored session at boot, in ascending id order:
// each snapshot is replayed through the real engine (rewarming the
// cross-step cache and verifying the recorded digests) and installed in
// the live map. A session that fails to replay is flight-recorded and
// left in the store for forensics, never served — unless ctx is done:
// that is the boot called off, not the session's fault, so recover
// returns the context's error and the store, only read, recovers in full
// next time. A corrupt WAL tail found by the store's own open is likewise
// flight-recorded here, where a recorder exists.
func (t *sessionTable) recover(ctx context.Context) error {
	snaps, nextID, err := t.store.All()
	if err != nil {
		return fmt.Errorf("server: reading session store: %w", err)
	}
	ids := make([]int, 0, len(snaps))
	for id := range snaps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	recovered := 0
	for _, id := range ids {
		sess, rerr := core.RestoreSession(ctx, t.ex, snaps[id])
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("server: session recovery: %w", err)
		}
		if rerr != nil {
			t.tel.flightEvent("session_recovery_failed", obs.NewWideEvent().
				Set("op", "recover_session").
				Set("session", id).
				Set("status", http.StatusInternalServerError).
				Set("error", rerr.Error()))
			continue
		}
		t.mu.Lock()
		t.sessions[id] = &sessionEntry{sess: sess, lastUsed: t.now()}
		t.mu.Unlock()
		t.tel.sessionsLive.Inc()
		recovered++
	}
	t.tel.sessionsRecovered.Add(int64(recovered))
	t.mu.Lock()
	t.nextID = max(t.nextID, nextID)
	t.mu.Unlock()
	if fs, ok := t.store.(*sessionstore.FileStore); ok {
		if rec := fs.Recovery(); rec.Truncated {
			t.tel.flightEvent("wal_corrupt_tail", obs.NewWideEvent().
				Set("op", "wal_truncation").
				Set("error", rec.Reason).
				Set("wal_valid_bytes", rec.TruncatedAt).
				Set("wal_records", rec.Records))
		}
	}
	return nil
}

// create admits a new session, installs it and makes it durable,
// returning its id.
func (t *sessionTable) create(mode core.Mode, start query.Description) (int, *refusal) {
	// Admission control, session creation, map insert and the live-session
	// gauge share one critical section: the cap can never be overshot by
	// concurrent creates, and the gauge can never transiently disagree
	// with the map.
	t.mu.Lock()
	if t.max > 0 && len(t.sessions) >= t.max {
		t.mu.Unlock()
		t.tel.admissionRejected.Inc()
		return 0, &refusal{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("session limit reached (%d); retry later or delete a session", t.max),
			retryAfter: retryAfterSeconds(t.ttl),
		}
	}
	sess, err := core.NewSession(t.ex, mode, start)
	if err != nil {
		t.mu.Unlock()
		return 0, refuse(http.StatusBadRequest, err.Error())
	}
	id := t.nextID
	t.nextID++
	t.sessions[id] = &sessionEntry{sess: sess, lastUsed: t.now()}
	t.tel.sessionsLive.Inc()
	t.mu.Unlock()
	// Log before respond: the session is durable before the client learns
	// its id. On failure the insert is rolled back — a 500 must not leak
	// a half-created session.
	if t.store != nil {
		if err := t.store.Create(id, sess.BaseSnapshot()); err != nil {
			t.mu.Lock()
			if _, ok := t.sessions[id]; ok {
				delete(t.sessions, id)
				t.tel.sessionsLive.Dec()
			}
			t.mu.Unlock()
			t.tel.walFailures.Inc()
			ref := refuse(http.StatusInternalServerError, "failed to persist session: "+err.Error())
			return 0, ref
		}
	}
	return id, nil
}

// retryAfterSeconds derives a Retry-After hint from the idle TTL: with a
// janitor configured, capacity frees up within a sweep or two; without
// one, only explicit deletes free capacity, so suggest a short poll.
func retryAfterSeconds(ttl time.Duration) string {
	if ttl <= 0 {
		return "1"
	}
	return strconv.Itoa(max(int(ttl/(4*time.Second)), 1))
}

// lookup returns a live session, refreshing its idle timestamp, with the
// durable-store fallback: a session the janitor shed (or one created
// before a restart that boot recovery skipped restoring) is replayed
// through the engine and re-installed transparently. It returns the
// entry, or the refusal to answer with (404 for a genuinely unknown
// session, 500 for one that exists in the store but failed to replay).
func (t *sessionTable) lookup(ctx context.Context, id int) (*sessionEntry, *refusal) {
	t.mu.Lock()
	e, ok := t.sessions[id]
	if ok {
		e.lastUsed = t.now()
	}
	t.mu.Unlock()
	if ok {
		return e, nil
	}
	if t.store == nil {
		return nil, errNoSession
	}
	snap, ok, err := t.store.Get(id)
	if err != nil {
		return nil, refuse(http.StatusInternalServerError, "session store: "+err.Error())
	}
	if !ok {
		return nil, errNoSession
	}
	// The replay runs outside every server lock: it is real engine work
	// (that is the point — the cache rewarms) and must not stall other
	// sessions.
	sess, err := core.RestoreSession(ctx, t.ex, snap)
	if err != nil {
		t.tel.flightEvent("session_restore_failed", obs.NewWideEvent().
			Set("op", "restore_session").
			Set("session", id).
			Set("status", http.StatusInternalServerError).
			Set("error", err.Error()))
		return nil, refuse(http.StatusInternalServerError, "session restore failed: "+err.Error())
	}
	t.mu.Lock()
	if e, ok := t.sessions[id]; ok {
		// Lost a concurrent restore race; the winner's copy is as exact
		// as ours (replay is deterministic) — use it and drop ours.
		e.lastUsed = t.now()
		t.mu.Unlock()
		return e, nil
	}
	// A concurrent DELETE may have removed the session while we were
	// replaying it; installing now would resurrect a session the client
	// was told is gone. Both checks run under t.mu: the tombstone covers
	// a delete whose durable removal is still in flight, the store
	// re-read covers one that already finished. Get is a pure mirror
	// read, so no file I/O happens under the lock.
	if t.deleting[id] > 0 {
		t.mu.Unlock()
		return nil, errNoSession
	}
	if _, still, serr := t.store.Get(id); serr != nil || !still {
		t.mu.Unlock()
		if serr != nil {
			return nil, refuse(http.StatusInternalServerError, "session store: "+serr.Error())
		}
		return nil, errNoSession
	}
	e = &sessionEntry{sess: sess, lastUsed: t.now()}
	t.sessions[id] = e
	t.mu.Unlock()
	t.tel.sessionsLive.Inc()
	t.tel.sessionsRestored.Inc()
	return e, nil
}

// remove deletes a session and decrements the in-flight gauge. Presence
// is rechecked under the lock so two concurrent removes of the same id
// cannot double-decrement, and the entry lock is TryLocked before removal
// so a DELETE can never yank a session out from under an in-flight step
// (the same discipline the janitor follows); a busy session is refused
// with 409 and the client retries. With a durable store the delete is
// persisted too — a deleted session must stay deleted across a restart.
// Deletion never restores: replaying a whole session through the engine
// just to discard it would be pure waste, so a shed session is looked up
// in the store directly.
func (t *sessionTable) remove(id int) *refusal {
	t.mu.Lock()
	e, ok := t.sessions[id]
	if ok {
		if !e.tryLock() {
			t.mu.Unlock()
			t.tel.busyRejected.Inc()
			return errBusy
		}
		delete(t.sessions, id)
		e.mu.Unlock()
	}
	// Tombstone the id in the same critical section as the removal:
	// until the durable delete below lands, a concurrent lookup must not
	// re-install a copy it restored from the still-present store record —
	// a 200 here must never leave a live session whose record is gone (it
	// would serve without durability and 500 on its next committed op).
	// Restores that finish after the tombstone clears re-read the store
	// under t.mu and find the record deleted.
	t.deleting[id]++
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		if t.deleting[id]--; t.deleting[id] <= 0 {
			delete(t.deleting, id)
		}
		t.mu.Unlock()
	}()
	inStore := false
	if t.store != nil && !ok {
		// A shed session is still deletable: check the store before 404ing.
		// The read error must surface as a 500, not be folded into "absent":
		// answering 404 on a store fault would tell the client the delete is
		// moot while the durable record (and its tombstone obligation) still
		// exists.
		_, found, serr := t.store.Get(id)
		if serr != nil {
			return refuse(http.StatusInternalServerError, "store read failed: "+serr.Error())
		}
		inStore = found
	}
	if !ok && !inStore {
		return errNoSession
	}
	if ok {
		t.tel.sessionsLive.Dec()
	}
	if t.store != nil {
		if err := t.store.Delete(id); err != nil {
			t.tel.walFailures.Inc()
			ref := refuse(http.StatusInternalServerError, "failed to persist delete: "+err.Error())
			return ref
		}
	}
	return nil
}

// appendOp logs one committed op to the durable store; a nil result lets
// the success response go out. On failure the answer is 500: the op is
// applied in memory (and the store's mirror; the gap heals at the next
// compaction), but the client must not act on a response the log never
// saw.
func (t *sessionTable) appendOp(id, seq int, op core.SessionOp, what string) *refusal {
	if t.store == nil {
		return nil
	}
	var ref *refusal
	if err := t.store.AppendOp(id, seq, op); err != nil {
		t.tel.walFailures.Inc()
		t.tel.flightEvent("wal_append_failed", obs.NewWideEvent().
			Set("op", "wal_append").
			Set("session", id).
			Set("error", err.Error()))
		ref = refuse(http.StatusInternalServerError, "failed to persist "+what+": "+err.Error())
	}
	return ref
}

// evictIdle removes every session idle for longer than the configured
// SessionTTL and returns how many were removed. Sessions mid-computation
// (entry lock held) are skipped — they are in use by definition. With a
// durable store configured the removal is a *shed*: the session's
// snapshot is persisted (outside every lock — Shed does file I/O) and
// the next request for it restores transparently; without one it is the
// old destructive eviction.
//
// The shared engine cache is deliberately untouched here: shedding moves
// one session's private state out of memory, and flushing the cross-
// session TopMapsCache would tax every other session's latency for it
// (a regression test pins cache hits across a shed/restore cycle).
func (t *sessionTable) evictIdle() int {
	if t.ttl <= 0 {
		return 0
	}
	cutoff := t.now().Add(-t.ttl)
	type shedItem struct {
		id   int
		snap *core.SessionSnapshot
	}
	var shed []shedItem
	evicted := 0
	t.mu.Lock()
	for id, e := range t.sessions {
		if e.lastUsed.After(cutoff) {
			continue
		}
		if !e.tryLock() {
			continue // a request is computing on it, or its last op is still being logged
		}
		if t.store != nil {
			shed = append(shed, shedItem{id, e.sess.Snapshot()})
		}
		delete(t.sessions, id)
		e.mu.Unlock()
		evicted++
	}
	t.mu.Unlock()
	t.tel.sessionsLive.Add(-float64(evicted))
	if t.store == nil {
		t.tel.sessionsEvicted.Add(int64(evicted))
		return evicted
	}
	for _, it := range shed {
		if err := t.store.Shed(it.id, it.snap); err != nil {
			if errors.Is(err, sessionstore.ErrStaleShed) {
				// The session moved on between the map removal above and
				// this append: a request restored it and durably committed
				// a newer op, or a DELETE removed it. Either way our
				// snapshot is obsolete and the store's refusal preserved
				// the newer state — dropping it is the correct outcome,
				// not a failure.
				continue
			}
			// The session left memory but its full snapshot missed the
			// log. The store's mirror still has it (mirror-ahead-of-log
			// heals at compaction); record the failure loudly.
			t.tel.walFailures.Inc()
			t.tel.flightEvent("wal_append_failed", obs.NewWideEvent().
				Set("op", "shed_session").
				Set("session", it.id).
				Set("error", err.Error()))
			continue
		}
		t.tel.sessionsShed.Inc()
	}
	return evicted
}
