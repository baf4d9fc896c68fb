package sessionstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"subdex/internal/core"
	"subdex/internal/obs"
)

// snap builds a minimal valid snapshot for store-level tests; the store
// treats snapshots as opaque, so no engine is needed.
func snap(start string, ops ...core.SessionOp) *core.SessionSnapshot {
	return &core.SessionSnapshot{
		Version: core.SnapshotVersion, Fingerprint: "feedc0de00000000",
		Mode: "rp", Start: start, Ops: ops,
	}
}

func stepOp(id string) core.SessionOp {
	return core.SessionOp{Kind: core.OpStep, Digests: []string{"d0", "d1"}, OpID: id}
}

// openFile opens a FileStore in dir that compacts after every appends
// (never when every ≤ 0).
func openFile(t *testing.T, dir string, every int) *FileStore {
	t.Helper()
	fs, err := open(dir, every)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestStoreContract runs the record semantics the server relies on
// against the file store.
func TestStoreContract(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		s := openFile(t, t.TempDir(), -1)

		if err := s.Create(1, snap("TRUE")); err != nil {
			t.Fatal(err)
		}
		if err := s.Create(1, snap("TRUE")); err == nil {
			t.Fatal("duplicate create must fail")
		}
		if err := s.AppendOp(1, 0, stepOp("1-1")); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendOp(1, 0, stepOp("1-dup")); err == nil {
			t.Fatal("out-of-order append must fail")
		}
		if err := s.AppendOp(1, 2, stepOp("1-gap")); err == nil {
			t.Fatal("gapped append must fail")
		}
		if err := s.AppendOp(99, 0, stepOp("99-1")); err == nil {
			t.Fatal("append to unknown session must fail")
		}
		got, ok, err := s.Get(1)
		if err != nil || !ok {
			t.Fatalf("get: ok=%t err=%v", ok, err)
		}
		if len(got.Ops) != 1 || got.Ops[0].OpID != "1-1" {
			t.Fatalf("stored ops: %+v", got.Ops)
		}

		// A full snapshot's Final is dropped the moment an op is
		// appended without one: the end-state record would be stale.
		full := snap("TRUE", stepOp("2-1"))
		full.Final = &core.FinalState{Current: "TRUE", Steps: 1}
		if err := s.Create(2, full); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendOp(2, 1, stepOp("2-2")); err != nil {
			t.Fatal(err)
		}
		got, _, _ = s.Get(2)
		if got.Final != nil {
			t.Error("append must clear a stale Final")
		}

		// Shed replaces wholesale; its Final survives (it matches).
		shed := snap("TRUE", stepOp("2-1"), stepOp("2-2"))
		shed.Final = &core.FinalState{Current: "TRUE", Steps: 2}
		if err := s.Shed(2, shed); err != nil {
			t.Fatal(err)
		}
		got, _, _ = s.Get(2)
		if got.Final == nil || got.Final.Steps != 2 {
			t.Errorf("shed must keep its Final: %+v", got.Final)
		}

		// A stale shed — a snapshot with fewer ops than the record it
		// would replace — must be refused: between snapshot and shed a
		// restored copy committed (and was acknowledged for) more ops,
		// and overwriting would erase them.
		if err := s.Shed(2, snap("TRUE", stepOp("2-1"))); !errors.Is(err, ErrStaleShed) {
			t.Fatalf("stale shed: err = %v, want ErrStaleShed", err)
		}
		if got, _, _ = s.Get(2); len(got.Ops) != 2 {
			t.Fatalf("stale shed mutated the record: %d ops, want 2", len(got.Ops))
		}

		// Mutating a returned copy must not reach the mirror.
		got.Ops[0].OpID = "mutated"
		again, _, _ := s.Get(2)
		if again.Ops[0].OpID == "mutated" {
			t.Error("Get must return a private copy")
		}

		all, next, err := s.All()
		if err != nil || len(all) != 2 {
			t.Fatalf("all: %d sessions err=%v", len(all), err)
		}
		if next != 3 {
			t.Errorf("next id: want 3, got %d", next)
		}
		if err := s.Delete(2); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(2); err != nil {
			t.Fatalf("deleting an unknown id must be a no-op: %v", err)
		}
		if _, ok, _ := s.Get(2); ok {
			t.Error("deleted session still readable")
		}
		// A shed that raced a delete must not resurrect the session.
		if err := s.Shed(2, shed); !errors.Is(err, ErrStaleShed) {
			t.Fatalf("shed after delete: err = %v, want ErrStaleShed", err)
		}
		if _, ok, _ := s.Get(2); ok {
			t.Error("stale shed resurrected a deleted session")
		}
		// The watermark survives deleting the highest id.
		if _, next, _ = s.All(); next != 3 {
			t.Errorf("next id after delete: want 3, got %d", next)
		}
		if st := s.Stats(); st.Sessions != 1 || st.Appends == 0 {
			t.Errorf("stats: %+v", st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFileStoreReopen is the durability core: everything recorded before
// a Close (or a crash — every append is fsynced) is there after reopen.
func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	fs := openFile(t, dir, -1)
	if err := fs.Create(1, snap("TRUE")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendOp(1, 0, stepOp("1-1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(2, snap("TRUE")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(3, snap("TRUE")); err == nil {
		t.Fatal("writes after Close must fail")
	}

	re := openFile(t, dir, -1)
	rec := re.Recovery()
	if rec.Truncated {
		t.Fatalf("clean log reported truncated: %+v", rec)
	}
	if rec.Sessions != 1 {
		t.Fatalf("recovered %d sessions, want 1", rec.Sessions)
	}
	got, ok, _ := re.Get(1)
	if !ok || len(got.Ops) != 1 || got.Ops[0].OpID != "1-1" {
		t.Fatalf("session 1 after reopen: ok=%t %+v", ok, got)
	}
	if _, next, _ := re.All(); next != 3 {
		t.Errorf("next id after reopen: want 3, got %d", next)
	}
}

// TestFileStoreCompaction drives enough appends to trigger compaction and
// checks the rewritten log replays to the same state — including the id
// watermark, which only the dedicated record can preserve once the
// highest session is deleted.
func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	fs := openFile(t, dir, 8)
	if err := fs.Create(1, snap("TRUE")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(9, snap("TRUE")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := fs.AppendOp(1, i, stepOp("")); err != nil {
			t.Fatal(err)
		}
	}
	if st := fs.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction after %d appends: %+v", 13, st)
	}
	want, _, _ := fs.All()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re := openFile(t, dir, -1)
	got, next, _ := re.All()
	if next != 10 {
		t.Errorf("compaction lost the id watermark: next = %d, want 10", next)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("compacted log replays differently:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestFileStoreConcurrentAppends hammers the write path from many
// goroutines (run under -race in CI): per-session seq discipline plus the
// fsync-outside-lock batching must stay coherent.
func TestFileStoreConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	fs := openFile(t, dir, 16)
	const sessions, ops = 8, 12
	var wg sync.WaitGroup
	for id := 1; id <= sessions; id++ {
		if err := fs.Create(id, snap("TRUE")); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := fs.AppendOp(id, i, stepOp("")); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re := openFile(t, dir, -1)
	all, _, _ := re.All()
	if len(all) != sessions {
		t.Fatalf("recovered %d sessions, want %d", len(all), sessions)
	}
	for id, s := range all {
		if len(s.Ops) != ops {
			t.Errorf("session %d: %d ops, want %d", id, len(s.Ops), ops)
		}
	}
}

// TestConcurrentAppendsAcrossCompaction pins the fsync-vs-swap ordering:
// with compaction firing on every append, a concurrent appender's Sync
// must never land on a file a compaction just closed — before swapMu
// that surfaced as a spurious "file already closed" fsync failure (and a
// client-facing 500) for a record that was in fact durable in the
// compacted log. Run under -race in CI.
func TestConcurrentAppendsAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	fs := openFile(t, dir, 1)
	const sessions, ops = 6, 25
	for id := 1; id <= sessions; id++ {
		if err := fs.Create(id, snap("TRUE")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for id := 1; id <= sessions; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := fs.AppendOp(id, i, stepOp("")); err != nil {
					t.Errorf("session %d op %d: %v", id, i, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re := openFile(t, dir, -1)
	all, _, _ := re.All()
	for id := 1; id <= sessions; id++ {
		s, ok := all[id]
		if !ok {
			t.Errorf("session %d lost", id)
			continue
		}
		if len(s.Ops) != ops {
			t.Errorf("session %d: %d ops after reopen, want %d", id, len(s.Ops), ops)
		}
	}
}

// TestInstruments pins that pre-instrumentation counts are credited and
// later activity keeps counting.
func TestInstruments(t *testing.T) {
	dir := t.TempDir()
	fs := openFile(t, dir, -1)
	if err := fs.Create(1, snap("TRUE")); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	re := openFile(t, dir, -1)
	reg := obs.NewRegistry()
	ins := Instruments{
		Appends:       reg.Counter("subdex_wal_appends_total", "test", obs.L("src", "t")),
		ReplayRecords: reg.Counter("subdex_wal_replay_records_total", "test", obs.L("src", "t")),
		Truncations:   reg.Counter("subdex_wal_truncations_total", "test", obs.L("src", "t")),
	}
	re.Instrument(ins)
	if got := ins.ReplayRecords.Value(); got != 1 {
		t.Errorf("replay records credited late: %v, want 1", got)
	}
	if err := re.AppendOp(1, 0, stepOp("")); err != nil {
		t.Fatal(err)
	}
	if got := ins.Appends.Value(); got != 1 {
		t.Errorf("appends: %v, want 1", got)
	}
	if got := re.Stats().Fsyncs; got < 1 {
		t.Errorf("fsyncs: %v, want >= 1", got)
	}
}

// TestOpenMissingDir creates the directory chain on demand.
func TestOpenMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	fs := openFile(t, dir, compactEvery)
	if err := fs.Create(1, snap("TRUE")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, WALFileName)); err != nil {
		t.Fatal(err)
	}
}
