package sessionstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
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
// and a create. The frame arm encodes as FileStore appends, into one
// buffer it reuses.
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
		var buf []byte
		appendReused := func(rec walRecord) (_ []byte, err error) {
			buf, err = appendLine(buf[:0], rec)
			return buf, err
		}
		for _, arm := range []struct {
			name   string
			encode func(walRecord) ([]byte, error)
			decode func([]byte) (walRecord, error)
		}{
			{"reference", encodeRecordReference, decodeLineReference},
			{"frame", appendReused, decodeLine},
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

// codecRecord builds a record whose every string, float and map key comes
// from the caller; shape's bits choose which optional parts are present:
// 1 an op, 2 a snapshot, 4 its final state, 8 empty slices in place of
// filled ones.
func codecRecord(shape uint8, s1, s2, s3 string, n1, n2 int, f1, f2 float64, degraded bool) walRecord {
	rec := walRecord{Kind: s1, ID: n1, Seq: n2}
	digests, dist, seen := []string{s2, s3}, []float64{f1, f2}, []core.SeenDelta{{Dim: n2, Dist: []float64{f1, f2}}, {Dim: n1}}
	if shape&8 != 0 {
		digests, dist, seen = []string{}, []float64{}, []core.SeenDelta{}
	}
	op := core.SessionOp{Kind: core.OpKind(s2), Predicate: s3, Index: n1, Digests: digests,
		Degraded: degraded, Seen: seen, OpID: s1}
	if shape&1 != 0 {
		rec.Op = &op
	}
	if shape&2 != 0 {
		rec.Snap = &core.SessionSnapshot{Version: n2, Fingerprint: s1, Mode: s2, Start: s3,
			Ops: []core.SessionOp{op, {Kind: core.OpBack}}}
		if shape&8 != 0 {
			rec.Snap.Ops = []core.SessionOp{}
		}
		if shape&4 != 0 {
			rec.Snap.Final = &core.FinalState{Current: s2, Steps: n1, Seen: ratingmap.SeenState{
				Dists: [][]float64{dist, nil}, Dims: map[int]int{n1: n2, n2: n1, 2: 1, 10: 3}, Total: n2}}
		}
	}
	return rec
}

// FuzzWALRecord holds the hand-written codec to encoding/json on records
// with arbitrary strings (invalid UTF-8 among them), floats at the format
// boundaries and NaN/Inf, and map keys whose string order is not their
// numeric order. Properties: encodeRecord writes the reference's bytes or
// both fail; decodeLine reads its own output as the reference does; and a
// payload with one byte replaced and its checksum recomputed is either
// refused by decodeLine or read as the reference reads it.
func FuzzWALRecord(f *testing.F) {
	for _, s := range []string{"", "step", "reviewers.city='NYC'", `a"b\c`, "<b>&amp;</b>", "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "\xff", "a\xc3", "\xed\xa0\x80", "\u00e9\u20ac\U0001F600", "\u2028\u2029", "\ufffd"} {
		f.Add(uint8(15), s, s+"x", "y"+s, 2, 10, 1e-6, 1e21, true, 0, byte('x'))
	}
	for _, fl := range []float64{0, math.Copysign(0, -1), 1e-6, 9.999999e-7, 1e-7, 1e21, 9.99999e20, 1e20, 123456789,
		0.1, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(uint8(7), "op", "step", "TRUE", -3, 0, fl, -fl, false, 17, byte('}'))
	}
	f.Add(uint8(0), "next", "", "", 41, 0, 0.0, 0.0, false, 5, byte('9'))
	f.Add(uint8(14), "shed", "ud", "TRUE", 1<<40, -(1 << 40), 0.25, 0.75, false, 40, byte(' '))
	f.Fuzz(func(t *testing.T, shape uint8, s1, s2, s3 string, n1, n2 int, f1, f2 float64, degraded bool, at int, b byte) {
		rec := codecRecord(shape, s1, s2, s3, n1, n2, f1, f2, degraded)
		got, err := encodeRecord(rec)
		want, rerr := encodeRecordReference(rec)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("encodeRecord error %v, reference error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodeRecord\n got %q\nwant %q", got, want)
		}
		line := got[:len(got)-1]
		dec, err := decodeLine(line)
		if err != nil {
			t.Fatalf("decodeLine rejects its own encoding: %v\n%q", err, line)
		}
		ref, err := decodeLineReference(line)
		if err != nil {
			t.Fatalf("reference rejects the encoding: %v", err)
		}
		if !reflect.DeepEqual(dec, ref) {
			t.Fatalf("decoded\n got %+v\nwant %+v", dec, ref)
		}

		payload := bytes.Clone(line[frameHead : len(line)-1])
		payload[uint(at)%uint(len(payload))] = b
		edited := append([]byte(framePrefix), appendCRC(nil, payload)...)
		edited = append(append(append(edited, frameInfix...), payload...), '}')
		checkAgainstReference(t, edited)
	})
}

// TestWALCodecFields lists the JSON fields of every type a WAL record
// holds. The codec writes and reads them by name, so a field added to any
// of these types fails here until the codec learns it.
func TestWALCodecFields(t *testing.T) {
	for typ, want := range map[reflect.Type]string{
		reflect.TypeOf(walRecord{}):            "k id seq,omitempty op,omitempty snap,omitempty",
		reflect.TypeOf(core.SessionOp{}):       "kind predicate,omitempty index,omitempty digests,omitempty degraded,omitempty seen,omitempty op_id,omitempty",
		reflect.TypeOf(core.SeenDelta{}):       "dim dist",
		reflect.TypeOf(core.SessionSnapshot{}): "version fingerprint mode start ops,omitempty final,omitempty",
		reflect.TypeOf(core.FinalState{}):      "current steps seen",
		reflect.TypeOf(ratingmap.SeenState{}):  "dists,omitempty dims,omitempty total",
	} {
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, typ.Field(i).Tag.Get("json"))
		}
		if got := strings.Join(tags, " "); got != want {
			t.Errorf("%s fields are %q; the codec writes %q", typ, got, want)
		}
	}
}

// TestWALPayloadOnlyAsWritten: a payload that is valid JSON for the same
// record but not the bytes the encoder writes is no record, even behind a
// good checksum.
func TestWALPayloadOnlyAsWritten(t *testing.T) {
	for name, payload := range map[string]string{
		"whitespace":         `{"k":"next", "id":41}`,
		"keys reordered":     `{"id":41,"k":"next"}`,
		"an unknown key":     `{"k":"next","id":41,"x":1}`,
		"a repeated key":     `{"k":"next","id":40,"id":41}`,
		"a null op":          `{"k":"op","id":1,"op":null}`,
		"a quoted number":    `{"k":"next","id":"41"}`,
		"a fraction id":      `{"k":"next","id":41.0}`,
		"a leading zero":     `{"k":"next","id":041}`,
		"escaped surrogates": `{"k":"\ud83d\ude00","id":41}`,
		"raw invalid UTF-8":  "{\"k\":\"\xff\",\"id\":41}",
		"a raw control":      "{\"k\":\"\t\",\"id\":41}",
		"trailing bytes":     `{"k":"next","id":41}{}`,
	} {
		line := append([]byte(framePrefix), appendCRC(nil, []byte(payload))...)
		line = append(append(append(line, frameInfix...), payload...), '}')
		checkAgainstReference(t, line)
		if _, err := decodeLine(line); err == nil {
			t.Errorf("%s: decodeLine accepts %q", name, payload)
		}
	}
}
