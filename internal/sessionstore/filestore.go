package sessionstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"subdex/internal/core"
)

// WALFileName is the log's name inside the store directory.
const WALFileName = "wal.jsonl"

// compactEvery is the append count after which Open's store rewrites the
// WAL as one snapshot record per live session.
const compactEvery = 4096

// preallocChunk is how much space the store allocates ahead of its log at
// a time: about 5 800 records of a served step.
const preallocChunk = 1 << 20

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

// FileStore is the durable Store: the mirror backed by an
// append-only, synced-per-record, checksummed JSONL write-ahead log with
// periodic snapshot compaction.
//
// Write path: the mirror mutation and the file write happen under the
// writer mutex (order is the log's whole value); the data sync happens
// after it is released, so concurrent appenders batch their flushes
// instead of convoying — a record is durable once its own sync returns.
// A record is written at end, into space allocated ahead (see reserve), so
// the sync flushes data and not a growing size. If a write fails after the
// mirror applied, the mirror is momentarily ahead of the log and end does
// not move: the next record overwrites the fragment, and the next
// compaction rewrites the log from the mirror, healing the gap.
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
	//subdex:lockorder rank=40 taken under wmu: shared by an appender, which holds it across its Sync and its Appends bump of statsMu; exclusively by compaction and Close around the file swap, which release it before any statsMu
	swapMu           sync.RWMutex
	f                *os.File
	recsSinceCompact int
	compactEvery     int
	end, alloc       int64  // the next record's offset; how far f's blocks are allocated
	noPrealloc       bool   // the file system cannot allocate ahead
	line             []byte // under wmu: the record being written, encoded over the last

	//subdex:lockorder rank=50 leaf: nests no lock; taken under wmu by compaction's bump and under shared swapMu by an appender's, and Stats releases it before taking the mirror's memState.mu
	statsMu  sync.Mutex
	ins      Instruments
	stats    Stats
	recovery RecoveryInfo
}

// Open opens (creating if needed) the store in dir, replaying any existing
// WAL. A corrupt tail is truncated away and reported in Recovery, never an
// error: the longest valid prefix wins.
func Open(dir string) (*FileStore, error) {
	return open(dir, compactEvery)
}

// open is Open with the compaction threshold as a parameter, so that tests
// can compact every few appends or never (every ≤ 0).
func open(dir string, every int) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	path := filepath.Join(dir, WALFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	fs := &FileStore{st: newMemState(), dir: dir, path: path, f: f, compactEvery: every}
	res := replayWAL(fs.st, f)
	// Cut a corrupt tail, or the NULs allocated ahead of a crashed log.
	info, err := f.Stat()
	if err == nil && info.Size() > res.ValidBytes {
		if err = f.Truncate(res.ValidBytes); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sessionstore: truncating the tail: %w", err)
	}
	fs.end, fs.alloc = res.ValidBytes, res.ValidBytes
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

// Recovery implements Store: it reports what Open found.
func (fs *FileStore) Recovery() RecoveryInfo {
	fs.statsMu.Lock()
	defer fs.statsMu.Unlock()
	return fs.recovery
}

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
	ins.ReplayRecords.Add(st.ReplayRecords)
	ins.Truncations.Add(st.Truncations)
}

// Stats reports lifetime operation counts.
func (fs *FileStore) Stats() Stats {
	fs.statsMu.Lock()
	st := fs.stats
	fs.statsMu.Unlock()
	fs.st.mu.Lock()
	st.Sessions = len(fs.st.sessions)
	fs.st.mu.Unlock()
	return st
}

// Close releases the log file. The store must not be used afterwards.
func (fs *FileStore) Close() error {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if fs.f == nil {
		return nil
	}
	// As in compact: let in-flight appender Syncs drain before the close.
	fs.swapMu.Lock()
	defer fs.swapMu.Unlock()
	// Cut the space allocated ahead: a closed log is exactly its records.
	err := fs.f.Truncate(fs.end)
	if serr := fs.f.Sync(); err == nil {
		err = serr
	}
	if cerr := fs.f.Close(); err == nil {
		err = cerr
	}
	fs.f = nil
	return err
}

// logAppend is the shared write path: mirror + file under wmu, data sync
// outside it, compaction when due.
func (fs *FileStore) logAppend(rec walRecord) error {
	fs.wmu.Lock()
	if fs.f == nil {
		fs.wmu.Unlock()
		return fmt.Errorf("sessionstore: store is closed")
	}
	// Encoded before the mirror applies it: a record the log cannot hold
	// changes nothing.
	line, err := appendLine(fs.line[:0], rec)
	if err != nil {
		fs.wmu.Unlock()
		return err
	}
	fs.line = line
	if err := fs.st.apply(rec); err != nil {
		fs.wmu.Unlock()
		return err
	}
	fs.reserve(int64(len(line)))
	_, werr := fs.f.WriteAt(line, fs.end)
	if werr == nil {
		fs.end += int64(len(line))
	}
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
	serr := syncData(f)
	fs.swapMu.RUnlock()
	if serr != nil {
		return fmt.Errorf("sessionstore: wal fsync: %w", serr)
	}
	fs.bump(func(s *Stats) { s.Fsyncs++ })
	if compactDue {
		// Compaction failure is deliberately not the append's failure:
		// the record above is already durable, and an uncompacted WAL is
		// merely longer, not wrong. The next due append retries.
		fs.compact()
	}
	return nil
}

// reserve allocates preallocChunk past the n bytes at end unless they lie in
// allocated space already; callers hold wmu. A failure only means the write
// extends the file; an unsupported file system is not asked again.
func (fs *FileStore) reserve(n int64) {
	if fs.noPrealloc || fs.end+n <= fs.alloc {
		return
	}
	err := preallocate(fs.f, fs.end, n+preallocChunk)
	switch {
	case err == nil:
		fs.alloc = fs.end + n + preallocChunk
	case errors.Is(err, errors.ErrUnsupported):
		fs.noPrealloc = true
	}
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
// rare by construction (every compactEvery appends), and appends must
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
	var end int64
	for _, rec := range recs {
		// Compaction runs under wmu: the append buffer is free.
		line, err := appendLine(fs.line[:0], rec)
		if err != nil {
			abort()
			return
		}
		fs.line = line
		if _, err := tmp.Write(line); err != nil {
			abort()
			return
		}
		end += int64(len(line))
	}
	alloc := end
	if !fs.noPrealloc && preallocate(tmp, end, preallocChunk) == nil {
		alloc += preallocChunk
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
	fs.f, fs.end, fs.alloc = tmp, end, alloc
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
