package ratingmap

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// wireAcc accumulates the given record positions over the fuzz fixture
// database for a key subset.
func wireAcc(db *dataset.DB, keys []Key, records []int32) *Accumulator {
	b := Builder{DB: db}
	acc := b.NewAccumulator(query.Description{}, keys)
	acc.Update(records)
	return acc
}

// wireRecordSets enumerates record selections covering the edges the
// codec has to preserve: empty, single-record, dense, strided, and
// repeated-visit states.
func wireRecordSets(n int32) [][]int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	evens := make([]int32, 0, n/2)
	for i := int32(0); i < n; i += 2 {
		evens = append(evens, i)
	}
	return [][]int32{
		nil,
		{0},
		{n - 1},
		all,
		evens,
		append(append([]int32{}, all...), all...), // every record folded twice
	}
}

// TestWireRoundTrip: decode(encode(acc)) must reproduce the complete
// mergeable state — every candidate's snapshot digest, per-key record
// counts, key registration order, and the shared-scan visit counter.
func TestWireRoundTrip(t *testing.T) {
	db, keys := fuzzFixture(t)
	b := Builder{DB: db}
	for ki, keySet := range [][]Key{keys, keys[:1], keys[3:5], nil} {
		for ri, records := range wireRecordSets(64) {
			acc := wireAcc(db, keySet, records)
			frame := acc.EncodeWire()
			got, err := b.DecodeWire(query.Description{}, frame)
			if err != nil {
				t.Fatalf("keys[%d] records[%d]: DecodeWire: %v", ki, ri, err)
			}
			if len(got.Keys()) != len(acc.Keys()) {
				t.Fatalf("keys[%d] records[%d]: key count %d, want %d", ki, ri, len(got.Keys()), len(acc.Keys()))
			}
			for i, k := range acc.Keys() {
				if got.Keys()[i] != k {
					t.Fatalf("keys[%d] records[%d]: key order diverged at %d: %v vs %v", ki, ri, i, got.Keys()[i], k)
				}
				if g, w := got.NumRecords(k), acc.NumRecords(k); g != w {
					t.Fatalf("keys[%d] records[%d]: NumRecords(%v) = %d, want %d", ki, ri, k, g, w)
				}
			}
			if g, w := got.RecordVisits(), acc.RecordVisits(); g != w {
				t.Fatalf("keys[%d] records[%d]: RecordVisits = %d, want %d", ki, ri, g, w)
			}
			if g, w := accDigest(got, got.Keys()), accDigest(acc, acc.Keys()); g != w {
				t.Fatalf("keys[%d] records[%d]: digest diverged\n got: %q\nwant: %q", ki, ri, g, w)
			}
			// Encode is canonical: re-encoding the decoded state must
			// reproduce the frame byte for byte.
			if !bytes.Equal(got.EncodeWire(), frame) {
				t.Fatalf("keys[%d] records[%d]: re-encode is not byte-identical", ki, ri)
			}
		}
	}
}

// TestWireMergeEquivalence simulates the coordinator: partials scanned
// over contiguous record ranges, shipped through the codec, and merged
// in partition order must equal one local scan of the concatenation.
func TestWireMergeEquivalence(t *testing.T) {
	db, keys := fuzzFixture(t)
	b := Builder{DB: db}
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	want := wireAcc(db, keys, all)
	for _, parts := range []int{1, 2, 3, 5, 64, 200} {
		master := b.NewAccumulator(query.Description{}, keys)
		for p := 0; p < parts; p++ {
			lo, hi := p*len(all)/parts, (p+1)*len(all)/parts
			if lo >= hi {
				continue
			}
			frame := wireAcc(db, keys, all[lo:hi]).EncodeWire()
			dec, err := b.DecodeWire(query.Description{}, frame)
			if err != nil {
				t.Fatalf("parts=%d p=%d: DecodeWire: %v", parts, p, err)
			}
			master.Merge(dec)
		}
		if g, w := accDigest(master, master.Keys()), accDigest(want, want.Keys()); g != w {
			t.Fatalf("parts=%d: merged digest diverged from sequential scan", parts)
		}
		if g, w := master.RecordVisits(), want.RecordVisits(); g != w {
			t.Fatalf("parts=%d: RecordVisits = %d, want %d", parts, g, w)
		}
	}
}

// TestWireRejectsCorrupt flips and truncates a valid frame every way a
// network or a buggy peer could: each must fail cleanly, never panic.
func TestWireRejectsCorrupt(t *testing.T) {
	db, keys := fuzzFixture(t)
	b := Builder{DB: db}
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	frame := wireAcc(db, keys, all).EncodeWire()
	if _, err := b.DecodeWire(query.Description{}, frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := b.DecodeWire(query.Description{}, frame[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for i := range frame {
		mut := append([]byte{}, frame...)
		mut[i] ^= 0x01
		if _, err := b.DecodeWire(query.Description{}, mut); err == nil {
			t.Fatalf("single-byte flip at offset %d accepted", i)
		}
	}
	for i := range frame {
		if _, err := b.DecodeWire(query.Description{}, frame[i:]); err == nil && i != 0 {
			t.Fatalf("frame with %d leading bytes dropped accepted", i)
		}
	}
	if _, err := b.DecodeWire(query.Description{}, append(append([]byte{}, frame...), 0)); err == nil {
		t.Fatal("frame with trailing garbage accepted")
	}
}

// TestWireSchemaGuard: a frame encoded against a database with a
// different rating scale must be rejected by the schema cross-check even
// though its checksum is intact.
func TestWireSchemaGuard(t *testing.T) {
	db, keys := fuzzFixture(t)
	b := Builder{DB: db}
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "city"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	reviewers.AppendRow("u", map[string]string{"gender": "F"}, nil)
	items.AppendRow("i", map[string]string{"city": "A"}, nil)
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 4})
	rt.Append(0, 0, []dataset.Score{2})
	other := dataset.NewDB("other", reviewers, items, rt)
	if err := other.Freeze(); err != nil {
		t.Fatal(err)
	}
	ob := Builder{DB: other}
	foreign := ob.NewAccumulator(query.Description{},
		[]Key{{Side: query.ReviewerSide, Attr: "gender", Dim: 0}})
	foreign.Update([]int32{0})
	if _, err := b.DecodeWire(query.Description{}, foreign.EncodeWire()); err == nil {
		t.Fatal("frame with scale-4 histograms accepted against a scale-5 schema")
	}
	// Dimension index outside the schema, same mechanics.
	narrow := dataset.NewDB("narrow", reviewers, items, rt)
	if err := narrow.Freeze(); err != nil {
		t.Fatal(err)
	}
	_ = keys
	nb := Builder{DB: narrow}
	wide := wireAcc(db, []Key{{Side: query.ReviewerSide, Attr: "gender", Dim: 1}}, []int32{0, 1, 2})
	if _, err := nb.DecodeWire(query.Description{}, wide.EncodeWire()); err == nil {
		t.Fatal("dimension-1 frame accepted against a one-dimension schema")
	}
}

// TestWireParentFrame pins the format across the change of accumulator
// representation: testdata/wire_v1_parent.hex is EncodeWire of the fixture's
// full scan as written by the commit before the block became the
// accumulator's state (WireVersion 1). It must decode, re-encode to the
// same bytes, and equal what the same scan encodes to today — on both scan
// paths.
func TestWireParentFrame(t *testing.T) {
	if WireVersion != 1 {
		t.Fatalf("WireVersion = %d, want 1: the frame layout did not change", WireVersion)
	}
	raw, err := os.ReadFile("testdata/wire_v1_parent.hex")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	db, keys := fuzzFixture(t)
	all := allRecords(db)
	dec, err := (&Builder{DB: db}).DecodeWire(query.Description{}, frame)
	if err != nil {
		t.Fatalf("parent-commit frame rejected: %v", err)
	}
	if !bytes.Equal(dec.EncodeWire(), frame) {
		t.Fatal("parent-commit frame does not re-encode byte-identically")
	}
	for name, update := range map[string]func(*Accumulator, []int32){
		"kernel": (*Accumulator).Update, "reference": (*Accumulator).updateReference,
	} {
		acc := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
		update(acc, all)
		if !bytes.Equal(acc.EncodeWire(), frame) {
			t.Fatalf("%s scan: today's encoding differs from the parent commit's", name)
		}
	}
}

// craftFrame seals a one-key frame for reviewers.gender on dimension 0
// (scale 5; dictionary: 0 missing, 1 F, 2 M) whose histogram section is
// given as raw varints — nRecords, nValues, then value ids and counts.
func craftFrame(histogram ...uint64) []byte {
	buf := append([]byte(wireMagic), WireVersion)
	buf = binary.AppendUvarint(buf, 0) // recordVisits
	buf = binary.AppendUvarint(buf, 1) // nKeys
	buf = append(buf, byte(query.ReviewerSide))
	buf = binary.AppendUvarint(buf, uint64(len("gender")))
	buf = append(buf, "gender"...)
	buf = binary.AppendUvarint(buf, 0) // dim
	buf = binary.AppendUvarint(buf, 5) // scale
	for _, x := range histogram {
		buf = binary.AppendUvarint(buf, x)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum(buf)
}

// rejectedFrames are checksum-intact frames the block representation
// cannot hold; DecodeWire must refuse each with an error, never a panic.
var rejectedFrames = map[string][]byte{
	"value id past the dictionary": craftFrame(1, 1, 3, 1, 0, 0, 0, 0),
	"the missing value id":         craftFrame(1, 1, 0, 1, 0, 0, 0, 0),
	"count above MaxInt32":         craftFrame(math.MaxInt32+1, 1, 1, math.MaxInt32+1, 0, 0, 0, 0),
	"all-zero row":                 craftFrame(1, 2, 1, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0),
}

func TestWireRejectsUnrepresentable(t *testing.T) {
	db, _ := fuzzFixture(t)
	b := Builder{DB: db}
	if _, err := b.DecodeWire(query.Description{}, craftFrame(3, 2, 1, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2)); err != nil {
		t.Fatalf("crafted control frame rejected: %v", err)
	}
	for name, frame := range rejectedFrames {
		if _, err := b.DecodeWire(query.Description{}, frame); err == nil {
			t.Errorf("frame with %s accepted", name)
		}
	}
	// The control frame's key twice over: nKeys is the byte after the
	// one-byte recordVisits, the key section runs up to the checksum.
	one := craftFrame(1, 1, 1, 1, 0, 0, 0, 0)
	body := one[wireHeaderLen+2 : len(one)-wireChecksumLen]
	twice := append(append(append([]byte{}, one[:wireHeaderLen+1]...), 2), body...)
	twice = append(twice, body...)
	h := fnv.New64a()
	h.Write(twice)
	if _, err := b.DecodeWire(query.Description{}, h.Sum(twice)); err == nil || !strings.Contains(err.Error(), "repeats key") {
		t.Errorf("frame repeating a key: err = %v, want a repeated-key error", err)
	}
	// An accumulator may hold a candidate its schema lacks (an empty block
	// no scan reaches); a frame may not: it comes from another dataset.
	stray := b.NewAccumulator(query.Description{}, []Key{{Side: query.ItemSide, Attr: "no_such_attribute"}})
	if _, err := b.DecodeWire(query.Description{}, stray.EncodeWire()); err == nil {
		t.Error("frame grouping by an attribute outside the schema accepted")
	}
}

// FuzzPartialCodec drives DecodeWire with arbitrary bytes: any input
// must either be rejected with an error or decode to a state whose
// re-encoding is a canonical fixed point (encode(decode(x)) decodes to
// the same digests and re-encodes to identical bytes). The checked-in
// corpus under testdata/fuzz/FuzzPartialCodec seeds valid frames plus
// truncated/corrupt variants.
func FuzzPartialCodec(f *testing.F) {
	db, keys := fuzzFixture(f)
	b := Builder{DB: db}
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	for _, records := range wireRecordSets(64) {
		f.Add(wireAcc(db, keys, records).EncodeWire())
	}
	valid := wireAcc(db, keys[:3], all).EncodeWire()
	f.Add(valid[:len(valid)/2])                        // truncated
	f.Add(append(append([]byte{}, valid...), 1, 2, 3)) // trailing garbage
	mut := append([]byte{}, valid...)
	mut[len(mut)-1] ^= 0xFF // checksum corruption
	f.Add(mut)
	f.Add([]byte("SDXA"))
	f.Add([]byte{})
	for _, frame := range rejectedFrames {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		acc, err := b.DecodeWire(query.Description{}, frame)
		if err != nil {
			return // rejected without panic: the contract for garbage
		}
		canon := acc.EncodeWire()
		again, err := b.DecodeWire(query.Description{}, canon)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if g, w := accDigest(again, again.Keys()), accDigest(acc, acc.Keys()); g != w {
			t.Fatalf("digest changed across re-encode\n got: %q\nwant: %q", g, w)
		}
		if again.RecordVisits() != acc.RecordVisits() {
			t.Fatalf("RecordVisits changed across re-encode: %d vs %d", again.RecordVisits(), acc.RecordVisits())
		}
		if !bytes.Equal(again.EncodeWire(), canon) {
			t.Fatal("encode is not a fixed point after one canonicalization")
		}
	})
}

// BenchmarkWireCodec sizes the round trip the cluster pays per partition
// response.
func BenchmarkWireCodec(bm *testing.B) {
	db, keys := fuzzFixture(bm)
	b := Builder{DB: db}
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	frame := wireAcc(db, keys, all).EncodeWire()
	bm.ReportMetric(float64(len(frame)), "frame-bytes")
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		acc, err := b.DecodeWire(query.Description{}, frame)
		if err != nil {
			bm.Fatal(err)
		}
		if got := acc.EncodeWire(); len(got) != len(frame) {
			bm.Fatal(fmt.Sprintf("re-encode length %d, want %d", len(got), len(frame)))
		}
	}
}
