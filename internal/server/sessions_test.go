package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/sessionstore"
)

// testTable builds a session table with no HTTP around it: demo data, a
// hand-moved clock, a one-minute TTL.
func testTable(t *testing.T, store sessionstore.Store, max int) (*sessionTable, *time.Duration) {
	t.Helper()
	db, err := gen.Demo(gen.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExplorer(db, lightConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, offset := time.Now(), new(time.Duration)
	now := func() time.Time { return base.Add(*offset) }
	opts := Options{Store: store, MaxSessions: max, SessionTTL: time.Minute}
	reg := obs.NewRegistry()
	table, err := newSessionTable(context.Background(), ex, reg, opts, now, newTelemetry(reg, opts, now))
	if err != nil {
		t.Fatal(err)
	}
	return table, offset
}

func mustCreate(t *testing.T, table *sessionTable) int {
	t.Helper()
	id, ref := table.create(core.UserDriven, query.Description{})
	if ref != nil {
		t.Fatalf("create: %d %s", ref.status, ref.msg)
	}
	return id
}

func wantRefusal(t *testing.T, what string, ref *refusal, status int) {
	t.Helper()
	if ref == nil || ref.status != status {
		t.Fatalf("%s: got %+v, want a %d refusal", what, ref, status)
	}
}

func TestTableCreateAtCap(t *testing.T) {
	table, _ := testTable(t, nil, 2)
	mustCreate(t, table)
	id := mustCreate(t, table)
	_, ref := table.create(core.UserDriven, query.Description{})
	wantRefusal(t, "create past the cap", ref, http.StatusTooManyRequests)
	if ref.retryAfter != "15" { // TTL/4
		t.Errorf("Retry-After = %q, want 15", ref.retryAfter)
	}
	if got := table.tel.admissionRejected.Value(); got != 1 {
		t.Errorf("admission rejections = %d, want 1", got)
	}
	if ref := table.remove(id); ref != nil {
		t.Fatalf("remove: %+v", ref)
	}
	if next := mustCreate(t, table); next != 3 {
		t.Errorf("id after a removal = %d, want 3 (ids are never reused)", next)
	}
	if got := table.tel.sessionsLive.Value(); got != 2 {
		t.Errorf("live gauge = %v, want 2", got)
	}
}

// TestTableEvictVersusShed runs the same idle sweep with and without a
// store: without one the session is destroyed, with one it is shed and
// the next lookup restores it.
func TestTableEvictVersusShed(t *testing.T) {
	ctx := context.Background()
	t.Run("no store", func(t *testing.T) {
		table, offset := testTable(t, nil, 0)
		id := mustCreate(t, table)
		*offset = 2 * time.Minute
		if n := table.evictIdle(); n != 1 {
			t.Fatalf("evicted %d, want 1", n)
		}
		_, ref := table.lookup(ctx, id)
		wantRefusal(t, "lookup of an evicted session", ref, http.StatusNotFound)
		if ev, shed := table.tel.sessionsEvicted.Value(), table.tel.sessionsShed.Value(); ev != 1 || shed != 0 {
			t.Errorf("evicted=%d shed=%d, want 1 and 0", ev, shed)
		}
	})
	t.Run("store", func(t *testing.T) {
		table, offset := testTable(t, tempStore(t), 0)
		id := mustCreate(t, table)
		*offset = 2 * time.Minute
		if n := table.evictIdle(); n != 1 {
			t.Fatalf("shed %d, want 1", n)
		}
		if ev, shed, live := table.tel.sessionsEvicted.Value(), table.tel.sessionsShed.Value(), table.tel.sessionsLive.Value(); ev != 0 || shed != 1 || live != 0 {
			t.Errorf("evicted=%d shed=%d live=%v, want 0, 1 and 0", ev, shed, live)
		}
		e, ref := table.lookup(ctx, id)
		if ref != nil {
			t.Fatalf("lookup of a shed session: %+v", ref)
		}
		if again, _ := table.lookup(ctx, id); again != e {
			t.Error("second lookup returned a different entry")
		}
		if restored, live := table.tel.sessionsRestored.Value(), table.tel.sessionsLive.Value(); restored != 1 || live != 1 {
			t.Errorf("restored=%d live=%v, want 1 and 1", restored, live)
		}
		// A session in use is not idle, whatever its timestamp says.
		*offset = 4 * time.Minute
		e.mu.Lock()
		if n := table.evictIdle(); n != 0 {
			t.Errorf("evicted %d sessions mid-computation", n)
		}
		e.mu.Unlock()
	})
}

// TestTableRestoreVersusDeleteTombstone holds a DELETE's tombstone over a
// shed session: a lookup that finishes its replay meanwhile must not
// install the session the client is being told is gone.
func TestTableRestoreVersusDeleteTombstone(t *testing.T) {
	ctx := context.Background()
	table, offset := testTable(t, tempStore(t), 0)
	id := mustCreate(t, table)
	*offset = 2 * time.Minute
	table.evictIdle()

	table.mu.Lock()
	table.deleting[id]++ // a remove is between its map removal and its durable delete
	table.mu.Unlock()
	_, ref := table.lookup(ctx, id)
	wantRefusal(t, "lookup under a tombstone", ref, http.StatusNotFound)
	table.mu.Lock()
	_, installed := table.sessions[id]
	delete(table.deleting, id)
	table.mu.Unlock()
	if installed {
		t.Fatal("lookup resurrected a session mid-delete")
	}
	if _, ref := table.lookup(ctx, id); ref != nil {
		t.Fatalf("lookup after the tombstone cleared: %+v", ref)
	}
}

func TestTableRemove(t *testing.T) {
	table, offset := testTable(t, tempStore(t), 0)
	id := mustCreate(t, table)
	e, _ := table.lookup(context.Background(), id)
	e.mu.Lock()
	wantRefusal(t, "remove of a busy session", table.remove(id), http.StatusConflict)
	e.mu.Unlock()
	if ref := table.remove(id); ref != nil {
		t.Fatalf("remove: %+v", ref)
	}
	wantRefusal(t, "second remove", table.remove(id), http.StatusNotFound)
	if got := table.tel.sessionsLive.Value(); got != 0 {
		t.Errorf("live gauge after a double remove = %v, want 0", got)
	}
	// A shed session is removed from the store without being restored.
	id = mustCreate(t, table)
	*offset = 2 * time.Minute
	table.evictIdle()
	if ref := table.remove(id); ref != nil {
		t.Fatalf("remove of a shed session: %+v", ref)
	}
	if got := table.tel.sessionsRestored.Value(); got != 0 {
		t.Errorf("remove restored the session it deleted (%d restores)", got)
	}
	wantRefusal(t, "remove after the durable delete", table.remove(id), http.StatusNotFound)
}
