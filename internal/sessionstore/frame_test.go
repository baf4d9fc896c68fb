package sessionstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"subdex/internal/core"
	"subdex/internal/ratingmap"
)

// The WAL line codec as it was while the envelope was a JSON object of its
// own, marshalled and unmarshalled around the record: the reference that
// encodeRecord must match byte for byte and decodeLine record for record.
// `git log -S encodeRecord` shows no other writer of this file format.

type walEnvelopeReference struct {
	C string          `json:"c"`
	R json.RawMessage `json:"r"`
}

func encodeRecordReference(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	env := walEnvelopeReference{
		C: fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli)),
		R: payload,
	}
	line, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

func decodeLineReference(line []byte) (walRecord, error) {
	var env walEnvelopeReference
	if err := json.Unmarshal(line, &env); err != nil {
		return walRecord{}, fmt.Errorf("sessionstore: bad wal line: %w", err)
	}
	if got := fmt.Sprintf("%08x", crc32.Checksum(env.R, castagnoli)); got != env.C {
		return walRecord{}, fmt.Errorf("sessionstore: wal checksum mismatch: line says %s, payload is %s", env.C, got)
	}
	var rec walRecord
	if err := json.Unmarshal(env.R, &rec); err != nil {
		return walRecord{}, fmt.Errorf("sessionstore: bad wal record: %w", err)
	}
	return rec, nil
}

// servedStepOp is a step op the size a served demo session logs: three
// digests of five bars.
func servedStepOp() core.SessionOp {
	return core.SessionOp{Kind: core.OpStep, OpID: "w17-s4", Digests: []string{
		"1.city.dim0|n=300|0:[3 5 9 21 30];1:[1 4 11 19 22];2:[2 2 8 17 31];3:[0 3 7 20 25];4:[4 1 6 12 37];",
		"0.age.dim1|n=287|0:[6 9 14 30 41];1:[2 8 13 33 29];2:[5 5 10 27 55];",
		"0.gender.dim0|n=300|0:[7 11 21 48 62];1:[3 4 20 41 83];",
	}}
}

// frameRecords lists every record kind TestWALTorture writes, the shapes
// the server logs beside them (a degraded step with its seen-set delta, an
// apply whose predicate needs JSON and HTML escapes, a shed with a final
// state), and records replay refuses.
func frameRecords() map[string]walRecord {
	full := snap("reviewers.gender='F'", stepOp("1-1"), core.SessionOp{Kind: core.OpBack})
	full.Final = &core.FinalState{Current: "TRUE", Steps: 1, Seen: ratingmap.NewSeenSet().State()}
	return map[string]walRecord{
		"create":      {Kind: recCreate, ID: 1, Snap: snap("TRUE")},
		"op step":     {Kind: recOp, ID: 1, Seq: 1, Op: opPtr(stepOp("1-2"))},
		"op served":   {Kind: recOp, ID: 200, Seq: 9, Op: opPtr(servedStepOp())},
		"op seq 0":    {Kind: recOp, ID: 1, Op: opPtr(stepOp("1-1"))},
		"op apply":    {Kind: recOp, ID: 3, Seq: 2, Op: &core.SessionOp{Kind: core.OpApply, Predicate: `items.name="Joe's <Bar> & Grill" AND reviewers.tag='a\b` + "\u2028'"}},
		"op rec":      {Kind: recOp, ID: 3, Seq: 3, Op: &core.SessionOp{Kind: core.OpRecommend, Index: 2}},
		"op back":     {Kind: recOp, ID: 3, Seq: 4, Op: &core.SessionOp{Kind: core.OpBack}},
		"op degraded": {Kind: recOp, ID: 4, Seq: 0, Op: &core.SessionOp{Kind: core.OpStep, Degraded: true, Digests: []string{"d0"}, Seen: []core.SeenDelta{{Dim: 1, Dist: []float64{0.1, 0.2, 1e-9, 0.7}}}}},
		"shed":        {Kind: recShed, ID: 1, Snap: snap("TRUE", stepOp("1-1"))},
		"shed final":  {Kind: recShed, ID: 2, Snap: full},
		"delete":      {Kind: recDelete, ID: 1},
		"next":        {Kind: recNext, ID: 41},
		"future kind": {Kind: "future", ID: 1},
		"op no op":    {Kind: recOp, ID: 1, Seq: 2},
		"zero":        {},
	}
}

// checkAgainstReference holds decodeLine to the one-sided contract on any
// line at all: what it accepts, the reference accepts, as the same record.
func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	rec, err := decodeLine(line)
	if err != nil {
		return
	}
	want, rerr := decodeLineReference(line)
	if rerr != nil {
		t.Fatalf("decodeLine accepts a line the reference rejects (%v): %q", rerr, line)
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("decoders disagree on %q:\n got %+v\nwant %+v", line, rec, want)
	}
}

// TestWALFrameMatchesReference is the proof that the byte frame is the
// JSON envelope: encodings identical, decodings identical, corruptions
// rejected by both, and the only lines the two decoders classify
// differently are listed here with the side that accepts them.
func TestWALFrameMatchesReference(t *testing.T) {
	var valid [][]byte
	for name, rec := range frameRecords() {
		got, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := encodeRecordReference(rec)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encodeRecord\n got %q\nwant %q", name, got, want)
		}
		line := got[:len(got)-1]
		dec, err := decodeLine(line)
		if err != nil {
			t.Fatalf("%s: decodeLine rejects its own encoding: %v", name, err)
		}
		ref, err := decodeLineReference(line)
		if err != nil {
			t.Fatalf("%s: reference rejects the encoding: %v", name, err)
		}
		if !reflect.DeepEqual(dec, ref) {
			t.Fatalf("%s: decoded\n got %+v\nwant %+v", name, dec, ref)
		}
		valid = append(valid, line)
	}

	// The torture table's damage and the frame's own, on every valid line:
	// no decoder may accept any of it.
	for _, line := range valid {
		n := len(line)
		flip := func(i int) []byte {
			out := bytes.Clone(line)
			out[i] ^= 0x01
			return out
		}
		for name, bad := range map[string][]byte{
			"torn tail":             line[:10],
			"cut mid-record":        line[:n-7],
			"cut closing brace":     line[:n-1],
			"flipped payload byte":  flip(n - 10),
			"flipped hex digit":     flip(crcStart + 3),
			"flipped first digit":   flip(crcStart),
			"flipped last digit":    flip(crcEnd - 1),
			"upper-case checksum":   append(append(bytes.Clone(line[:crcStart]), bytes.ToUpper(line[crcStart:crcEnd])...), line[crcEnd:]...),
			"seven-digit checksum":  append(bytes.Clone(line[:crcStart]), line[crcStart+1:]...),
			"trailing garbage":      append(bytes.Clone(line), "x"...),
			"two records, one line": append(bytes.Clone(line), line...),
			"payload alone":         line[frameHead : n-1],
			"empty line":            {},
			"not json at all":       []byte("not json at all"),
			"frame, empty payload":  []byte(framePrefix + "00000000" + frameInfix + "}"),
			"frame, scalar payload": []byte(framePrefix + string(appendCRC(nil, []byte("1"))) + frameInfix + "1}"),
		} {
			if name == "upper-case checksum" && bytes.Equal(bad, line) {
				continue // a checksum of decimal digits only
			}
			checkAgainstReference(t, bad)
			if _, err := decodeLine(bad); err == nil {
				t.Errorf("decodeLine accepts %s: %q", name, bad)
			}
			if _, err := decodeLineReference(bad); err == nil {
				t.Errorf("reference accepts %s: %q", name, bad)
			}
		}
	}

	// Where the decoders part: envelopes that are valid JSON around a
	// checksummed record but not the bytes encodeRecord writes. The
	// reference takes them; decodeLine ends the valid prefix there. No
	// line goes the other way (checkAgainstReference, on every line here
	// and on FuzzWALReplay's inputs).
	payload := `{"k":"next","id":41}`
	sum := string(appendCRC(nil, []byte(payload)))
	for name, line := range map[string]string{
		"space after the opening brace": `{ "c":"` + sum + `","r":` + payload + `}`,
		"space before the payload":      `{"c":"` + sum + `","r": ` + payload + `}`,
		"space after the payload":       `{"c":"` + sum + `","r":` + payload + ` }`,
		"keys swapped":                  `{"r":` + payload + `,"c":"` + sum + `"}`,
		"a third key":                   `{"c":"` + sum + `","r":` + payload + `,"x":1}`,
		"a repeated key":                `{"c":"0","c":"` + sum + `","r":` + payload + `}`,
		"key in another case":           `{"C":"` + sum + `","r":` + payload + `}`,
		"an escaped checksum digit":     `{"c":"` + strings.Replace(sum, sum[:1], fmt.Sprintf(`\u%04x`, sum[0]), 1) + `","r":` + payload + `}`,
	} {
		checkAgainstReference(t, []byte(line))
		if _, err := decodeLineReference([]byte(line)); err != nil {
			t.Errorf("%s: the reference no longer accepts %q: %v", name, line, err)
		}
		if _, err := decodeLine([]byte(line)); err == nil {
			t.Errorf("%s: decodeLine accepts a non-canonical frame %q", name, line)
		}
	}
	// A null payload decodes to the zero record under the reference and is
	// no frame here; replay refuses the zero record's kind, so the valid
	// prefix ends at the same byte either way.
	null := `{"c":"` + string(appendCRC(nil, []byte("null"))) + `","r":null}`
	rec, err := decodeLineReference([]byte(null))
	if err != nil {
		t.Fatalf("reference on a null payload: %v", err)
	}
	if _, err := newMemState().replay(rec, map[int]bool{}); err == nil {
		t.Error("replay applies the zero record")
	}
	if _, err := decodeLine([]byte(null)); err == nil {
		t.Error("decodeLine accepts a null payload")
	}
}

// TestWALCrossVersionReplay replays a log written by the reference encoder
// under decodeLine and one written by encodeRecord under the reference
// decoder: one memState either way.
func TestWALCrossVersionReplay(t *testing.T) {
	recs := []walRecord{
		{Kind: recCreate, ID: 1, Snap: snap("TRUE")},
		{Kind: recCreate, ID: 2, Snap: snap("items.city='A'")},
		{Kind: recOp, ID: 1, Seq: 0, Op: opPtr(servedStepOp())},
		{Kind: recOp, ID: 2, Seq: 0, Op: opPtr(stepOp("2-1"))},
		{Kind: recOp, ID: 1, Seq: 1, Op: &core.SessionOp{Kind: core.OpApply, Predicate: "items.city='B'"}},
		{Kind: recShed, ID: 2, Snap: snap("items.city='A'", stepOp("2-1"), stepOp("2-2"))},
		{Kind: recDelete, ID: 2},
		{Kind: recNext, ID: 7},
	}
	var oldLog bytes.Buffer
	for _, rec := range recs {
		line, err := encodeRecordReference(rec)
		if err != nil {
			t.Fatal(err)
		}
		oldLog.Write(line)
	}
	newLog := lines(t, recs...)
	if !bytes.Equal(oldLog.Bytes(), newLog) {
		t.Fatal("the two encoders wrote different logs")
	}
	// Reference decoder over the new log: replayWAL's loop, line by line.
	want := newMemState()
	deleted := map[int]bool{}
	for _, line := range bytes.SplitAfter(newLog, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := decodeLineReference(line[:len(line)-1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := want.replay(rec, deleted); err != nil {
			t.Fatal(err)
		}
	}
	got := newMemState()
	if res := replayWAL(got, &oldLog); res.Truncated || res.Applied != int64(len(recs)) {
		t.Fatalf("replay of the reference's log: %+v", res)
	}
	if !reflect.DeepEqual(got.sessions, want.sessions) || got.nextID != want.nextID {
		t.Fatalf("memState differs:\n got %+v next %d\nwant %+v next %d", got.sessions, got.nextID, want.sessions, want.nextID)
	}
}

// BenchmarkWALFrame encodes and decodes one line, reference against the
// byte frame, for the two records a served session writes most: a step op
// and a create.
//
//	go test ./internal/sessionstore -run '^$' -bench WALFrame -benchmem
func BenchmarkWALFrame(b *testing.B) {
	for _, r := range []struct {
		name string
		rec  walRecord
	}{
		{"step", walRecord{Kind: recOp, ID: 200, Seq: 9, Op: opPtr(servedStepOp())}},
		{"create", walRecord{Kind: recCreate, ID: 200, Snap: snap("TRUE")}},
	} {
		line := lines(b, r.rec)
		line = line[:len(line)-1]
		for _, arm := range []struct {
			name   string
			encode func(walRecord) ([]byte, error)
			decode func([]byte) (walRecord, error)
		}{
			{"reference", encodeRecordReference, decodeLineReference},
			{"frame", encodeRecord, decodeLine},
		} {
			b.Run("encode/"+r.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(line) + 1))
				for i := 0; i < b.N; i++ {
					if _, err := arm.encode(r.rec); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("decode/"+r.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(line) + 1))
				for i := 0; i < b.N; i++ {
					if _, err := arm.decode(line); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
