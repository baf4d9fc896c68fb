package sessionstore

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"subdex/internal/core"
)

// The WAL is a JSONL file: one record per line, each wrapped in a CRC
// envelope {"c":"<crc32c hex>","r":<record>} so torn or bit-flipped
// tails are detected without trusting JSON well-formedness alone. The
// envelope is a byte frame, not a JSON object of its own: a line is valid
// only in the exact bytes encodeRecord writes around the record. Any other
// line, valid JSON or not, is a corrupt tail — which is what a line that
// encodeRecord did not write has always been in practice. Replay
// recovers the longest valid prefix: the first undecodable or
// checksum-failing line ends recovery and the file is truncated there.
// Three well-formed redundancies are tolerated mid-stream instead of
// truncating — an op whose seq was already applied (a duplicate append
// after an ill-timed crash), an op for a session no longer present (its
// delete already applied), and a shed that is stale (its snapshot has
// fewer ops than the record it would replace, or its session was
// already deleted in this log) — because each has exactly one correct
// interpretation: skip.

// Record kinds. A create opens a session with its base snapshot, an op
// appends one committed operation, a shed replaces the whole record with
// a full snapshot (compaction writes these too), a delete removes it.
const (
	recCreate = "create"
	recOp     = "op"
	recShed   = "shed"
	recDelete = "delete"
	// recNext is the id-allocator watermark (ID = highest id ever used):
	// compaction writes one so deleting the highest session can never
	// cause id reuse after a restart.
	recNext = "next"
)

// walRecord is one logical WAL record (the "r" payload of a line).
type walRecord struct {
	Kind string                `json:"k"`
	ID   int                   `json:"id"`
	Seq  int                   `json:"seq,omitempty"`
	Op   *core.SessionOp       `json:"op,omitempty"`
	Snap *core.SessionSnapshot `json:"snap,omitempty"`
}

// The frame around a record's JSON, {"c":"<8 hex digits>","r":<record>},
// as the byte offsets encodeRecord writes and decodeLine checks.
const (
	framePrefix = `{"c":"`
	frameInfix  = `","r":`
	crcStart    = len(framePrefix)
	crcEnd      = crcStart + 8
	frameHead   = crcEnd + len(frameInfix)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendCRC appends the payload's CRC-32C as eight lower-case hex digits.
func appendCRC(dst, payload []byte) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	return hex.AppendEncode(dst, sum[:])
}

// encodeRecord renders one WAL line, newline-terminated.
func encodeRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := append(make([]byte, 0, frameHead+len(payload)+2), framePrefix...)
	line = appendCRC(line, payload)
	line = append(line, frameInfix...)
	line = append(line, payload...)
	return append(line, '}', '\n'), nil
}

// decodeLine parses and checksum-verifies one WAL line.
func decodeLine(line []byte) (walRecord, error) {
	// The payload's own braces are part of the frame: with them, a line
	// accepted here is one JSON object whose "r" is exactly the payload.
	n := len(line)
	if n < frameHead+len("{}}") || string(line[:crcStart]) != framePrefix ||
		string(line[crcEnd:frameHead]) != frameInfix || line[frameHead] != '{' || string(line[n-2:]) != "}}" {
		return walRecord{}, fmt.Errorf("sessionstore: bad wal line: not a %s…%s{…}} frame", framePrefix, frameInfix)
	}
	payload := line[frameHead : n-1]
	var sum [8]byte
	if got := appendCRC(sum[:0], payload); string(got) != string(line[crcStart:crcEnd]) {
		return walRecord{}, fmt.Errorf("sessionstore: wal checksum mismatch: line says %s, payload is %s", line[crcStart:crcEnd], got)
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return walRecord{}, fmt.Errorf("sessionstore: bad wal record: %w", err)
	}
	return rec, nil
}

// apply mutates the mirror with one record under live-write semantics:
// any inconsistency is a caller bug and errors out before anything is
// written. Compare replay, which tolerates the redundancies a crash can
// legitimately leave behind.
func (st *memState) apply(rec walRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch rec.Kind {
	case recCreate:
		if rec.Snap == nil {
			return fmt.Errorf("sessionstore: create record without snapshot")
		}
		if _, ok := st.sessions[rec.ID]; ok {
			return fmt.Errorf("sessionstore: session %d already exists", rec.ID)
		}
		st.sessions[rec.ID] = rec.Snap
		st.bumpNextID(rec.ID)
	case recOp:
		snap, ok := st.sessions[rec.ID]
		if !ok {
			return fmt.Errorf("sessionstore: append to unknown session %d", rec.ID)
		}
		if rec.Seq != len(snap.Ops) {
			return errSeq(rec.ID, rec.Seq, len(snap.Ops))
		}
		snap.Ops = append(snap.Ops, *rec.Op)
		// The recorded end state predates this op; drop it rather than
		// let RestoreSession verify against a stale target.
		snap.Final = nil
	case recShed:
		if rec.Snap == nil {
			return fmt.Errorf("sessionstore: shed record without snapshot")
		}
		// A shed wholesale-replaces the record, so it must not be older
		// than what it replaces: between the caller snapshotting the
		// session and this append, a restored copy may have committed
		// (and durably logged) further ops, or a delete may have removed
		// the session. Overwriting would erase acknowledged state —
		// later AppendOps would fail their seq check forever and a
		// restart would resume pre-op — so a stale shed is refused
		// before anything is written.
		cur, ok := st.sessions[rec.ID]
		if !ok {
			return fmt.Errorf("%w: session %d no longer exists", ErrStaleShed, rec.ID)
		}
		if len(rec.Snap.Ops) < len(cur.Ops) {
			return fmt.Errorf("%w: session %d snapshot has %d ops, record has %d",
				ErrStaleShed, rec.ID, len(rec.Snap.Ops), len(cur.Ops))
		}
		st.sessions[rec.ID] = rec.Snap
		st.bumpNextID(rec.ID)
	case recDelete:
		delete(st.sessions, rec.ID)
	case recNext:
		st.bumpNextID(rec.ID)
	default:
		return fmt.Errorf("sessionstore: unknown record kind %q", rec.Kind)
	}
	return nil
}

// replay mutates the mirror with one recovered record. It reports
// whether the record was applied (false: skipped as redundant). An error
// means the record is inconsistent with the recovered prefix (e.g. a seq
// gap, which proves a lost write) — the caller stops and truncates.
// deleted is the set of ids a recDelete removed earlier in this stream;
// the caller owns it across the whole replay.
func (st *memState) replay(rec walRecord, deleted map[int]bool) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch rec.Kind {
	case recCreate:
		if rec.Snap == nil {
			return false, fmt.Errorf("sessionstore: create record without snapshot")
		}
		st.sessions[rec.ID] = rec.Snap
		st.bumpNextID(rec.ID)
	case recOp:
		if rec.Op == nil {
			return false, fmt.Errorf("sessionstore: op record without op")
		}
		snap, ok := st.sessions[rec.ID]
		if !ok {
			return false, nil // session already deleted: dead op
		}
		if rec.Seq < len(snap.Ops) {
			return false, nil // duplicate append: already applied
		}
		if rec.Seq > len(snap.Ops) {
			return false, errSeq(rec.ID, rec.Seq, len(snap.Ops))
		}
		snap.Ops = append(snap.Ops, *rec.Op)
		snap.Final = nil
	case recShed:
		if rec.Snap == nil {
			return false, fmt.Errorf("sessionstore: shed record without snapshot")
		}
		// A shed for an id this log never deleted but does not hold is a
		// creation — that is the shape compaction writes. A shed for a
		// deleted id, or one older than the record it would replace, is
		// the stale leftover apply refuses on the live path: skip it
		// rather than resurrect or rewind acknowledged state.
		if deleted[rec.ID] {
			return false, nil
		}
		if cur, ok := st.sessions[rec.ID]; ok && len(rec.Snap.Ops) < len(cur.Ops) {
			return false, nil
		}
		st.sessions[rec.ID] = rec.Snap
		st.bumpNextID(rec.ID)
	case recDelete:
		delete(st.sessions, rec.ID)
		deleted[rec.ID] = true
	case recNext:
		st.bumpNextID(rec.ID)
	default:
		return false, fmt.Errorf("sessionstore: unknown record kind %q", rec.Kind)
	}
	return true, nil
}

// bumpNextID advances the allocator watermark; callers hold st.mu.
func (st *memState) bumpNextID(id int) {
	if id >= st.nextID {
		st.nextID = id + 1
	}
}

// replayResult summarizes one WAL read.
type replayResult struct {
	// Applied and Skipped count records; see Stats.
	Applied int64
	Skipped int64
	// ValidBytes is the byte length of the longest valid prefix. When
	// Truncated, everything at and past this offset is corrupt.
	ValidBytes int64
	// Truncated reports that the file had an invalid tail (Reason says
	// why). The caller is responsible for the actual truncation.
	Truncated bool
	Reason    string
}

// replayWAL reads a WAL stream into the mirror, stopping at the first
// invalid line. It never fails: any unreadable suffix just ends the
// recovered prefix.
func replayWAL(st *memState, r io.Reader) replayResult {
	var res replayResult
	deleted := make(map[int]bool)
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			if len(line) > 0 {
				// A torn final write: the record never finished.
				res.Truncated = true
				res.Reason = "torn final record (no newline)"
			}
			return res
		}
		if err != nil {
			res.Truncated = true
			res.Reason = fmt.Sprintf("read: %v", err)
			return res
		}
		rec, derr := decodeLine(line[:len(line)-1])
		if derr != nil {
			res.Truncated = true
			res.Reason = derr.Error()
			return res
		}
		applied, aerr := st.replay(rec, deleted)
		if aerr != nil {
			res.Truncated = true
			res.Reason = aerr.Error()
			return res
		}
		res.ValidBytes += int64(len(line))
		if applied {
			res.Applied++
		} else {
			res.Skipped++
		}
	}
}
