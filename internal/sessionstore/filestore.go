package sessionstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"subdex/internal/core"
)

// WALFileName is the log's name inside the store directory.
const WALFileName = "wal.jsonl"

// DefaultCompactEvery is the append count that triggers snapshot
// compaction when FileOptions leaves it unset.
const DefaultCompactEvery = 4096

// FileOptions tunes a FileStore.
type FileOptions struct {
	// CompactEvery rewrites the WAL as one snapshot record per live
	// session after this many appends (0 selects DefaultCompactEvery,
	// negative disables compaction).
	CompactEvery int
}

// RecoveryInfo reports what Open found in the log.
type RecoveryInfo struct {
	// Records and Skipped count the replayed prefix (see Stats).
	Records int64
	Skipped int64
	// Truncated reports that the log had an invalid tail, cut off at
	// byte offset TruncatedAt for the Reason given.
	Truncated   bool
	TruncatedAt int64
	Reason      string
	// Sessions is the number of sessions recovered.
	Sessions int
}

// FileStore is the durable Store: the shared mirror backed by an
// append-only, fsync-per-record, checksummed JSONL write-ahead log with
// periodic snapshot compaction.
//
// Write path: the mirror mutation and the file write happen under the
// writer mutex (order is the log's whole value); the fsync happens
// after it is released, so concurrent appenders batch their flushes
// instead of convoying — a record is durable once its own Sync returns.
// If a write fails after the mirror applied, the mirror is momentarily
// ahead of the log; the next compaction rewrites the log from the
// mirror, healing the gap.
type FileStore struct {
	st   *memState
	dir  string
	path string

	//subdex:lockorder rank=30 write head of the file-store ladder: taken before swapMu, statsMu, and the mirror's memState.mu
	wmu sync.Mutex // serializes mirror+file mutation and compaction
	// swapMu orders the post-wmu fsync against the compaction file swap:
	// an appender takes it shared (before releasing wmu, so no swap can
	// slip in between) and holds it across its Sync; compaction and Close
	// take it exclusively around closing the old file. Without it a
	// concurrent compaction could close the file under an in-flight Sync,
	// turning a durably-written record into a spurious fsync failure.
	// Lock order is always wmu then swapMu.
	//subdex:lockorder rank=40 acquired shared under wmu by appenders and exclusively by compaction before statsMu
	swapMu           sync.RWMutex
	f                *os.File
	recsSinceCompact int
	compactEvery     int

	//subdex:lockorder rank=50 leaf of the write path; Stats holds it across the mirror's memState.mu only
	statsMu  sync.Mutex
	ins      Instruments
	stats    Stats
	recovery RecoveryInfo
}

// Open opens (creating if needed) the store in dir with default options,
// replaying any existing WAL. A corrupt tail is truncated away and
// reported in Recovery, never an error: the longest valid prefix wins.
func Open(dir string) (*FileStore, error) {
	return OpenWithOptions(dir, FileOptions{})
}

// OpenWithOptions is Open with explicit tuning.
func OpenWithOptions(dir string, o FileOptions) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	path := filepath.Join(dir, WALFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	fs := &FileStore{st: newMemState(), dir: dir, path: path, f: f,
		compactEvery: o.CompactEvery}
	if fs.compactEvery == 0 {
		fs.compactEvery = DefaultCompactEvery
	}
	res := replayWAL(fs.st, f)
	if res.Truncated {
		if err := f.Truncate(res.ValidBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("sessionstore: truncating corrupt tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("sessionstore: %w", err)
		}
	}
	if _, err := f.Seek(res.ValidBytes, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	fs.recsSinceCompact = int(res.Applied + res.Skipped)
	fs.stats.ReplayRecords = res.Applied
	fs.stats.ReplaySkipped = res.Skipped
	fs.recovery = RecoveryInfo{Records: res.Applied, Skipped: res.Skipped,
		Truncated: res.Truncated, TruncatedAt: res.ValidBytes, Reason: res.Reason}
	fs.st.mu.Lock()
	fs.recovery.Sessions = len(fs.st.sessions)
	fs.st.mu.Unlock()
	if res.Truncated {
		fs.stats.Truncations = 1
	}
	return fs, nil
}

// Recovery reports what Open found.
func (fs *FileStore) Recovery() RecoveryInfo {
	fs.statsMu.Lock()
	defer fs.statsMu.Unlock()
	return fs.recovery
}

// Dir returns the store directory.
func (fs *FileStore) Dir() string { return fs.dir }

// Create implements Store.
func (fs *FileStore) Create(id int, snap *core.SessionSnapshot) error {
	return fs.logAppend(walRecord{Kind: recCreate, ID: id, Snap: snapshotCopy(snap)})
}

// AppendOp implements Store.
func (fs *FileStore) AppendOp(id, seq int, op core.SessionOp) error {
	return fs.logAppend(walRecord{Kind: recOp, ID: id, Seq: seq, Op: &op})
}

// Shed implements Store.
func (fs *FileStore) Shed(id int, snap *core.SessionSnapshot) error {
	return fs.logAppend(walRecord{Kind: recShed, ID: id, Snap: snapshotCopy(snap)})
}

// Delete implements Store.
func (fs *FileStore) Delete(id int) error {
	return fs.logAppend(walRecord{Kind: recDelete, ID: id})
}

// Get implements Store.
func (fs *FileStore) Get(id int) (*core.SessionSnapshot, bool, error) {
	fs.st.mu.Lock()
	defer fs.st.mu.Unlock()
	snap, ok := fs.st.sessions[id]
	if !ok {
		return nil, false, nil
	}
	return snapshotCopy(snap), true, nil
}

// All implements Store.
func (fs *FileStore) All() (map[int]*core.SessionSnapshot, int, error) {
	fs.st.mu.Lock()
	defer fs.st.mu.Unlock()
	out := make(map[int]*core.SessionSnapshot, len(fs.st.sessions))
	for id, snap := range fs.st.sessions {
		out[id] = snapshotCopy(snap)
	}
	return out, fs.st.nextID, nil
}

// Instrument implements Store: counts accumulated before instrumentation
// (open-time replay, early appends) are added to the counters up front.
func (fs *FileStore) Instrument(ins Instruments) {
	fs.statsMu.Lock()
	st := fs.stats
	fs.ins = ins
	fs.statsMu.Unlock()
	ins.Appends.Add(st.Appends)
	ins.Fsyncs.Add(st.Fsyncs)
	ins.ReplayRecords.Add(st.ReplayRecords)
	ins.Truncations.Add(st.Truncations)
}

// Stats implements Store.
func (fs *FileStore) Stats() Stats {
	fs.statsMu.Lock()
	st := fs.stats
	fs.statsMu.Unlock()
	fs.st.mu.Lock()
	st.Sessions = len(fs.st.sessions)
	fs.st.mu.Unlock()
	return st
}

// Close implements Store.
func (fs *FileStore) Close() error {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if fs.f == nil {
		return nil
	}
	// As in compact: let in-flight appender Syncs drain before the close.
	fs.swapMu.Lock()
	defer fs.swapMu.Unlock()
	err := fs.f.Sync()
	if cerr := fs.f.Close(); err == nil {
		err = cerr
	}
	fs.f = nil
	return err
}

// logAppend is the shared write path: mirror + file under wmu, fsync
// outside it, compaction when due.
func (fs *FileStore) logAppend(rec walRecord) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	fs.wmu.Lock()
	if fs.f == nil {
		fs.wmu.Unlock()
		return fmt.Errorf("sessionstore: store is closed")
	}
	if err := fs.st.apply(rec); err != nil {
		fs.wmu.Unlock()
		return err
	}
	_, werr := fs.f.Write(line)
	f := fs.f
	fs.recsSinceCompact++
	compactDue := werr == nil && fs.compactEvery > 0 && fs.recsSinceCompact >= fs.compactEvery
	// Pin f against a concurrent compaction's close until our Sync
	// returns; acquired before wmu is released so the swap cannot happen
	// in between. See the swapMu field comment.
	fs.swapMu.RLock()
	fs.wmu.Unlock()
	if werr != nil {
		fs.swapMu.RUnlock()
		return fmt.Errorf("sessionstore: wal write: %w", werr)
	}
	ins := fs.bump(func(s *Stats) { s.Appends++ })
	ins.Appends.Inc()
	serr := f.Sync()
	fs.swapMu.RUnlock()
	if serr != nil {
		return fmt.Errorf("sessionstore: wal fsync: %w", serr)
	}
	ins = fs.bump(func(s *Stats) { s.Fsyncs++ })
	ins.Fsyncs.Inc()
	if compactDue {
		// Compaction failure is deliberately not the append's failure:
		// the record above is already durable, and an uncompacted WAL is
		// merely longer, not wrong. The next due append retries.
		fs.compact()
	}
	return nil
}

// bump applies a stats mutation and returns the current instruments.
func (fs *FileStore) bump(mut func(*Stats)) Instruments {
	fs.statsMu.Lock()
	defer fs.statsMu.Unlock()
	mut(&fs.stats)
	return fs.ins
}

// compact rewrites the WAL as its logical content: one watermark record
// plus one snapshot record per live session, written to a temp file,
// fsynced, and atomically renamed over the log. Runs under wmu — it is
// rare by construction (every CompactEvery appends), and appends must
// not interleave with the swap.
func (fs *FileStore) compact() {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if fs.f == nil || fs.recsSinceCompact < fs.compactEvery {
		return // lost the race with another appender's compaction
	}
	fs.st.mu.Lock()
	recs := make([]walRecord, 0, len(fs.st.sessions)+1)
	recs = append(recs, walRecord{Kind: recNext, ID: fs.st.nextID - 1})
	for id, snap := range fs.st.sessions {
		recs = append(recs, walRecord{Kind: recShed, ID: id, Snap: snapshotCopy(snap)})
	}
	fs.st.mu.Unlock()
	sort.Slice(recs[1:], func(i, j int) bool { return recs[i+1].ID < recs[j+1].ID })

	tmpPath := fs.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	abort := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	for _, rec := range recs {
		line, err := encodeRecord(rec)
		if err != nil {
			abort()
			return
		}
		if _, err := tmp.Write(line); err != nil {
			abort()
			return
		}
	}
	if err := tmp.Sync(); err != nil {
		abort()
		return
	}
	if err := os.Rename(tmpPath, fs.path); err != nil {
		abort()
		return
	}
	// Crash before the directory fsync can resurface the old log; both
	// logs replay to a consistent store, so that is a durability detail,
	// not a correctness hole.
	syncDir(fs.dir)
	// Wait for in-flight appender Syncs (they hold swapMu shared) before
	// closing the file out from under them. New appenders cannot arrive:
	// they need wmu, which this function holds.
	fs.swapMu.Lock()
	fs.f.Close()
	fs.f = tmp
	fs.swapMu.Unlock()
	fs.recsSinceCompact = 0
	fs.bump(func(s *Stats) { s.Compactions++ })
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
