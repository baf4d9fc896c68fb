// Versioned compact-binary wire codec for partial accumulators — the
// payload a cluster worker ships back to the coordinator (see
// internal/cluster). The format serializes exactly the state Merge
// consumes (per-candidate integer histograms plus the shared-scan visit
// counter), so decode-then-Merge at the coordinator is bit-for-bit
// equivalent to having run the worker's scan locally.
//
// Frame layout (version 1), all integers unsigned varints unless noted:
//
//	"SDXA"                         4-byte magic
//	version                        1 byte (= 1)
//	recordVisits
//	nKeys
//	nKeys × {
//	  side                         1 byte (0 = reviewer, 1 = item)
//	  len(attr), attr bytes
//	  dim
//	  scale
//	  nRecords
//	  nValues
//	  nValues × {                  strictly ascending ValueID order
//	    valueID
//	    scale × count
//	  }
//	}
//	checksum                       8 bytes, big-endian FNV-1a 64 of
//	                               everything preceding it
//
// Decoding is strict: bad magic/version/checksum, non-ascending or
// duplicate value ids, a grouping attribute outside the builder's database
// schema, a value id outside the attribute's dictionary (the
// missing id 0 included), an all-zero histogram (a subgroup exists iff its
// row is non-zero, so encode never writes one), a count above
// math.MaxInt32, scale or dimension disagreeing with the builder's
// database schema, per-key record counts that do not equal the histogram
// mass, trailing bytes, or any cap violation all return an error — never
// a panic and never an unbounded allocation — which FuzzPartialCodec
// (wire_test.go) enforces on arbitrary input.
package ratingmap

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// WireVersion is the current partial-accumulator frame version. A
// version bump is a cluster-wide flag day: coordinators reject frames of
// any other version, which together with the engine-config fingerprint
// check keeps mixed-version clusters from silently merging incompatible
// state.
const WireVersion = 1

const (
	wireMagic       = "SDXA"
	wireHeaderLen   = len(wireMagic) + 1
	wireChecksumLen = 8

	// Decode caps: each bounds an attacker- (or bitflip-) controlled
	// allocation before it happens. All sit far above anything the
	// datasets in internal/gen produce while keeping the worst-case
	// allocation for a corrupt frame small.
	maxWireVisits  = int(1) << 47
	maxWireKeys    = 1 << 16
	maxWireAttrLen = 1 << 10
	maxWireScale   = 64
)

// EncodeWire serializes the accumulator's mergeable state as one
// checksummed frame. Keys are written in registration order and value
// histograms in ascending ValueID order, so equal accumulator states
// produce identical bytes (encode is a canonical form: decode∘encode is
// the identity on frames encode produced).
func (a *Accumulator) EncodeWire() []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, wireMagic...)
	buf = append(buf, WireVersion)
	buf = binary.AppendUvarint(buf, uint64(a.recordVisits))
	buf = binary.AppendUvarint(buf, uint64(len(a.parts)))
	for i := range a.parts {
		p, k := &a.parts[i], a.parts[i].key
		buf = append(buf, byte(k.Side))
		buf = binary.AppendUvarint(buf, uint64(len(k.Attr)))
		buf = append(buf, k.Attr...)
		buf = binary.AppendUvarint(buf, uint64(k.Dim))
		buf = binary.AppendUvarint(buf, uint64(p.scale))
		nRecords, nValues := 0, 0
		p.rows(func(_ dataset.ValueID, _ []int32, n int) {
			nRecords += n
			nValues++
		})
		buf = binary.AppendUvarint(buf, uint64(nRecords))
		buf = binary.AppendUvarint(buf, uint64(nValues))
		p.rows(func(v dataset.ValueID, c []int32, _ int) {
			buf = binary.AppendUvarint(buf, uint64(v))
			for _, n := range c {
				buf = binary.AppendUvarint(buf, uint64(n))
			}
		})
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum(buf)
}

// wireReader is a fail-fast cursor over a frame payload: the first
// malformed read latches err and every later read returns zero, so
// decode loops can defer a single error check.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("ratingmap: wire frame truncated or overflowing at %s (offset %d)", what, r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("ratingmap: wire frame truncated at %s (offset %d)", what, r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("ratingmap: wire frame truncated at %s (offset %d)", what, r.off)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// DecodeWire parses one frame produced by EncodeWire into a fresh
// accumulator over the builder's database, carrying desc for snapshots
// (the frame itself is description-free — the coordinator knows which
// group it asked the worker to scan). Every schema-facing field is
// validated against b.DB, so a frame from a worker holding a different
// dataset fails here even if its checksum is intact.
func (b *Builder) DecodeWire(desc query.Description, frame []byte) (*Accumulator, error) {
	if len(frame) < wireHeaderLen+wireChecksumLen {
		return nil, fmt.Errorf("ratingmap: wire frame too short (%d bytes)", len(frame))
	}
	if string(frame[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("ratingmap: bad wire magic %q", frame[:len(wireMagic)])
	}
	if v := frame[len(wireMagic)]; v != WireVersion {
		return nil, fmt.Errorf("ratingmap: unsupported wire version %d (want %d)", v, WireVersion)
	}
	payload := frame[:len(frame)-wireChecksumLen]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := binary.BigEndian.Uint64(frame[len(frame)-wireChecksumLen:]), h.Sum64(); got != want {
		return nil, fmt.Errorf("ratingmap: wire checksum mismatch (got %016x, want %016x)", got, want)
	}
	if b.DB == nil {
		return nil, fmt.Errorf("ratingmap: DecodeWire needs a builder with a database")
	}
	dims := b.DB.Ratings.Dimensions

	r := &wireReader{b: payload, off: wireHeaderLen}
	visits := r.uvarint("recordVisits")
	if visits > uint64(maxWireVisits) {
		return nil, fmt.Errorf("ratingmap: wire recordVisits %d exceeds cap", visits)
	}
	nKeys := r.uvarint("nKeys")
	if nKeys > maxWireKeys {
		return nil, fmt.Errorf("ratingmap: wire key count %d exceeds cap", nKeys)
	}
	acc := b.emptyAccumulator(desc)
	room := min(int(nKeys), len(payload)/6) // a key is six bytes and its attribute, at least
	acc.order, acc.parts = make([]Key, 0, room), make([]partial, 0, room)
	for i := uint64(0); i < nKeys && r.err == nil; i++ {
		side := r.byte("side")
		if side > 1 {
			return nil, fmt.Errorf("ratingmap: wire key %d has invalid side %d", i, side)
		}
		alen := r.uvarint("attr length")
		if alen > maxWireAttrLen {
			return nil, fmt.Errorf("ratingmap: wire key %d attr length %d exceeds cap", i, alen)
		}
		attr := string(r.bytes(int(alen), "attr"))
		dim := r.uvarint("dim")
		if r.err == nil && dim >= uint64(len(dims)) {
			return nil, fmt.Errorf("ratingmap: wire key %d dimension %d outside schema (%d dims)", i, dim, len(dims))
		}
		scale := r.uvarint("scale")
		if r.err == nil && (scale == 0 || scale > maxWireScale) {
			return nil, fmt.Errorf("ratingmap: wire key %d scale %d out of range", i, scale)
		}
		if r.err == nil && int(scale) != dims[dim].Scale {
			return nil, fmt.Errorf("ratingmap: wire key %d scale %d disagrees with schema scale %d for dimension %q",
				i, scale, dims[dim].Scale, dims[dim].Name)
		}
		nRecords := r.uvarint("nRecords")
		nValues := r.uvarint("nValues")
		if r.err != nil {
			break
		}
		k := Key{Side: query.Side(side), Attr: attr, Dim: int(dim)}
		g := acc.groupOf(k)
		if g == nil {
			return nil, fmt.Errorf("ratingmap: wire key %s groups by an attribute outside the schema", k)
		}
		for _, at := range g.members {
			if acc.order[at] == k {
				return nil, fmt.Errorf("ratingmap: wire frame repeats key %s", k)
			}
		}
		p := acc.register(k)
		stride := p.scale + 1
		dictLen := uint64(len(p.hist) / stride)
		prev, mass := uint64(0), uint64(0)
		for j := uint64(0); j < nValues && r.err == nil; j++ {
			v := r.uvarint("valueID")
			if r.err != nil {
				break
			}
			if v >= dictLen {
				return nil, fmt.Errorf("ratingmap: wire key %s value id %d outside its dictionary (%d ids)", k, v, dictLen)
			}
			if v <= prev {
				return nil, fmt.Errorf("ratingmap: wire value ids not strictly ascending from 1 (%d after %d)", v, prev)
			}
			prev = v
			rowMass := uint64(0)
			for s := 1; s < stride; s++ {
				n := r.uvarint("count")
				if n > math.MaxInt32 {
					return nil, fmt.Errorf("ratingmap: wire count %d exceeds cap", n)
				}
				p.hist[int(v)*stride+s] = int32(n)
				rowMass += n
			}
			if rowMass == 0 && r.err == nil {
				return nil, fmt.Errorf("ratingmap: wire key %s value id %d has an all-zero histogram", k, v)
			}
			mass += rowMass
		}
		if r.err != nil {
			break
		}
		if mass != nRecords {
			return nil, fmt.Errorf("ratingmap: wire key %s histogram mass %d disagrees with record count %d",
				k, mass, nRecords)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("ratingmap: wire frame has %d trailing payload bytes", len(payload)-r.off)
	}
	acc.recordVisits = int(visits)
	return acc, nil
}
