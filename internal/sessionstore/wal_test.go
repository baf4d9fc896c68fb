package sessionstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subdex/internal/core"
)

// lines renders a sequence of records as a well-formed WAL.
func lines(t testing.TB, recs ...walRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

func baseWAL(t testing.TB) []byte {
	return lines(t,
		walRecord{Kind: recCreate, ID: 1, Snap: snap("TRUE")},
		walRecord{Kind: recOp, ID: 1, Seq: 0, Op: opPtr(stepOp("1-1"))},
		walRecord{Kind: recOp, ID: 1, Seq: 1, Op: opPtr(stepOp("1-2"))},
	)
}

func opPtr(op core.SessionOp) *core.SessionOp { return &op }

// writeWAL materializes raw bytes as a store directory's log.
func writeWAL(t testing.TB, raw []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWALTorture is the corrupt-log table: every case states the damage,
// what the longest valid prefix contains, and whether a truncation is
// reported. Recovery must never fail — it recovers what it can prove.
func TestWALTorture(t *testing.T) {
	base := baseWAL(t)
	cases := []struct {
		name string
		raw  func(t *testing.T) []byte

		wantOps       int  // ops recovered for session 1 (-1: session absent)
		wantTruncated bool // corrupt tail reported and cut
		wantSkipped   int64
	}{
		{
			name: "clean", raw: func(t *testing.T) []byte { return base },
			wantOps: 2,
		},
		{
			name: "empty file", raw: func(t *testing.T) []byte { return nil },
			wantOps: -1,
		},
		{
			name: "torn tail (no newline)",
			raw: func(t *testing.T) []byte {
				return append(append([]byte{}, base...), []byte(`{"c":"0000`)...)
			},
			wantOps: 2, wantTruncated: true,
		},
		{
			name: "truncated mid-record",
			raw: func(t *testing.T) []byte {
				return base[:len(base)-7] // cut inside the last line
			},
			wantOps: 1, wantTruncated: true,
		},
		{
			name: "flipped checksum byte",
			raw: func(t *testing.T) []byte {
				raw := append([]byte{}, base...)
				// Flip a byte inside the last record's payload: the CRC
				// must catch it even though the JSON may stay well-formed.
				raw[len(raw)-10] ^= 0x01
				return raw
			},
			wantOps: 1, wantTruncated: true,
		},
		{
			name: "garbage line mid-file ends the prefix",
			raw: func(t *testing.T) []byte {
				head := lines(t, walRecord{Kind: recCreate, ID: 1, Snap: snap("TRUE")})
				tail := lines(t, walRecord{Kind: recOp, ID: 1, Seq: 0, Op: opPtr(stepOp("1-1"))})
				raw := append([]byte{}, head...)
				raw = append(raw, []byte("not json at all\n")...)
				return append(raw, tail...)
			},
			wantOps: 0, wantTruncated: true,
		},
		{
			name: "duplicate seq skipped",
			raw: func(t *testing.T) []byte {
				return append(append([]byte{}, base...),
					lines(t, walRecord{Kind: recOp, ID: 1, Seq: 1, Op: opPtr(stepOp("1-2"))})...)
			},
			wantOps: 2, wantSkipped: 1,
		},
		{
			name: "seq gap proves a lost write",
			raw: func(t *testing.T) []byte {
				return append(append([]byte{}, base...),
					lines(t, walRecord{Kind: recOp, ID: 1, Seq: 5, Op: opPtr(stepOp("1-6"))})...)
			},
			wantOps: 2, wantTruncated: true,
		},
		{
			name: "op after delete skipped",
			raw: func(t *testing.T) []byte {
				return append(append([]byte{}, base...),
					lines(t,
						walRecord{Kind: recDelete, ID: 1},
						walRecord{Kind: recOp, ID: 1, Seq: 2, Op: opPtr(stepOp("1-3"))},
					)...)
			},
			wantOps: -1, wantSkipped: 1,
		},
		{
			name: "stale shed (fewer ops) skipped",
			raw: func(t *testing.T) []byte {
				return append(append([]byte{}, base...),
					lines(t, walRecord{Kind: recShed, ID: 1, Snap: snap("TRUE", stepOp("1-1"))})...)
			},
			wantOps: 2, wantSkipped: 1,
		},
		{
			name: "shed after delete skipped",
			raw: func(t *testing.T) []byte {
				return append(append([]byte{}, base...),
					lines(t,
						walRecord{Kind: recDelete, ID: 1},
						walRecord{Kind: recShed, ID: 1, Snap: snap("TRUE", stepOp("1-1"))},
					)...)
			},
			wantOps: -1, wantSkipped: 1,
		},
		{
			name: "unknown record kind ends the prefix",
			raw: func(t *testing.T) []byte {
				return append(append([]byte{}, base...),
					lines(t, walRecord{Kind: "future", ID: 1})...)
			},
			wantOps: 2, wantTruncated: true,
		},
		{
			name: "op record without op payload ends the prefix",
			raw: func(t *testing.T) []byte {
				return append(append([]byte{}, base...),
					lines(t, walRecord{Kind: recOp, ID: 1, Seq: 2})...)
			},
			wantOps: 2, wantTruncated: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeWAL(t, tc.raw(t))
			fs := openFile(t, dir, FileOptions{CompactEvery: -1})
			rec := fs.Recovery()
			if rec.Truncated != tc.wantTruncated {
				t.Errorf("truncated = %t (%s), want %t", rec.Truncated, rec.Reason, tc.wantTruncated)
			}
			if rec.Skipped != tc.wantSkipped {
				t.Errorf("skipped = %d, want %d", rec.Skipped, tc.wantSkipped)
			}
			got, ok, _ := fs.Get(1)
			if tc.wantOps < 0 {
				if ok {
					t.Fatalf("session 1 must be absent, got %+v", got)
				}
			} else {
				if !ok {
					t.Fatal("session 1 missing")
				}
				if len(got.Ops) != tc.wantOps {
					t.Errorf("ops = %d, want %d", len(got.Ops), tc.wantOps)
				}
			}

			// The store stays writable after recovery, and a second open
			// of the truncated file must be clean: recovery converges.
			if tc.wantOps >= 0 {
				if err := fs.AppendOp(1, tc.wantOps, stepOp("post")); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
			}
			fs.Close()
			re := openFile(t, dir, FileOptions{CompactEvery: -1})
			if rec2 := re.Recovery(); rec2.Truncated {
				t.Errorf("second open still truncating: %+v", rec2)
			}
		})
	}
}

// TestWALTruncationPreservesPrefix pins the byte-level contract: after a
// corrupt-tail open, the on-disk file is exactly the longest valid
// prefix.
func TestWALTruncationPreservesPrefix(t *testing.T) {
	base := baseWAL(t)
	raw := append(append([]byte{}, base...), []byte("garbage, no newline")...)
	dir := writeWAL(t, raw)
	fs := openFile(t, dir, FileOptions{CompactEvery: -1})
	if rec := fs.Recovery(); !rec.Truncated || rec.TruncatedAt != int64(len(base)) {
		t.Fatalf("recovery: %+v, want truncation at %d", rec, len(base))
	}
	fs.Close()
	onDisk, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, base) {
		t.Errorf("on-disk log is not the valid prefix: %d bytes, want %d", len(onDisk), len(base))
	}
}

// FuzzWALReplay feeds arbitrary bytes through recovery. Properties: no
// panic, the claimed valid prefix replays cleanly (recovery is a fixed
// point), and replaying the prefix reproduces the exact session state the
// full replay reported — the fast path never diverges from re-reading
// its own output.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(baseWAL(f))
	f.Add([]byte("{\"c\":\"00000000\",\"r\":{}}\n"))
	f.Add(append(baseWAL(f), []byte("{\"c\":")...))
	corrupt := baseWAL(f)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	// Damage to the frame around the last record, and two envelopes that
	// are valid JSON but not the frame (TestWALFrameMatchesReference).
	base := baseWAL(f)
	last := bytes.LastIndexByte(base[:len(base)-1], '\n') + 1
	mutate := func(edit func(line []byte) []byte) {
		f.Add(append(bytes.Clone(base[:last]), edit(bytes.Clone(base[last:]))...))
	}
	mutate(func(line []byte) []byte { // a flipped hex digit
		line[crcStart+2] ^= 0x01
		return line
	})
	mutate(func(line []byte) []byte { // the closing brace missing
		return append(line[:len(line)-2], '\n')
	})
	mutate(func(line []byte) []byte { // "c" and "r" swapped
		n := len(line)
		return []byte(`{"r":` + string(line[frameHead:n-2]) + `,"c":"` + string(line[crcStart:crcEnd]) + "\"}\n")
	})
	mutate(func(line []byte) []byte { // whitespace inside the frame
		return append([]byte(`{"c": `), line[crcStart-1:]...)
	})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, line := range bytes.Split(raw, []byte("\n")) {
			checkAgainstReference(t, line)
		}
		st := newMemState()
		res := replayWAL(st, bytes.NewReader(raw))
		if res.ValidBytes > int64(len(raw)) {
			t.Fatalf("valid prefix %d exceeds input %d", res.ValidBytes, len(raw))
		}
		if !res.Truncated && res.ValidBytes != int64(len(raw)) {
			t.Fatalf("clean replay consumed %d of %d bytes", res.ValidBytes, len(raw))
		}

		// Reference: replay only the claimed prefix. It must be clean and
		// land in the identical state.
		ref := newMemState()
		res2 := replayWAL(ref, bytes.NewReader(raw[:res.ValidBytes]))
		if res2.Truncated {
			t.Fatalf("valid prefix did not replay cleanly: %s", res2.Reason)
		}
		if res2.Applied != res.Applied || res2.Skipped != res.Skipped {
			t.Fatalf("prefix replay counts diverge: %d/%d vs %d/%d",
				res2.Applied, res2.Skipped, res.Applied, res.Skipped)
		}
		if !reflect.DeepEqual(st.sessions, ref.sessions) || st.nextID != ref.nextID {
			t.Fatal("prefix replay state diverges from full replay")
		}
	})
}
