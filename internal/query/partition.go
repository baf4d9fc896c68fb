package query

import (
	"fmt"
	"slices"

	"subdex/internal/dataset"
)

// Partition is a record list bucketed by one attribute: bucket v holds, in
// the input's order, the records whose entity has value v — exactly the
// records Materialize would return for the input's description with
// ⟨attr, v⟩ added, because a bucket admits a row iff HasValue does — or,
// under a sample bound n, Sample of them. A row of a multi-valued attribute
// lands in one bucket per value it holds, a row with a missing atomic value
// in the missing label's bucket.
//
// It is what lets the Recommendation Builder derive its candidates' groups
// from a group it already holds: every value of the attribute is answered
// by two linear passes over the frozen AttrColumn (count, then fill one
// CSR backing array) instead of one entity-table materialization and one
// sort per value, and a candidate scored on a sample never has its whole
// group built. A Partition is immutable once built, so the group cache
// shares one across passes and sessions (PartitionCached).
type Partition struct {
	dict    *dataset.Dictionary
	offsets []int   // bucket v is records[offsets[v]:offsets[v+1]]
	records []int32 // the buckets, back to back in value-id order
}

// Sample returns n records evenly spaced across records, in their order:
// the i-th at position int(i × (len/n)), the stride rounded first. They are
// written into dst's array, which is replaced when its capacity is under n.
// With n ≤ 0, or no more than n records, it returns records itself and
// leaves dst alone. It is deterministic, so repeated evaluations of one
// candidate operation are scored on the same records.
func Sample(dst, records []int32, n int) []int32 {
	if n <= 0 || len(records) <= n {
		return records
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = records[samplePos(i, len(records), n)]
	}
	return dst
}

// samplePos is the position of Sample's i-th pick among count > n records.
// The picks never go back, so one pass in input order finds them all.
func samplePos(i, count, n int) int {
	return int(float64(i) * (float64(count) / float64(n)))
}

// Partition buckets records — positions into the rating table, typically an
// ascending RatingGroup.Records — by the given attribute. With n > 0 every
// bucket holds Sample(bucket, n), at most n records, and the records no
// bucket keeps are never written; n ≤ 0 keeps every bucket whole.
func (e *Engine) Partition(records []int32, side Side, attr string, n int) (*Partition, error) {
	t := e.table(side)
	a := t.Schema.Index(attr)
	if a < 0 {
		return nil, fmt.Errorf("query: %s has no attribute %q", side, attr)
	}
	rowOf := e.entityColumn(side)
	col := t.Column(a) // non-nil: NewEngine only wraps a frozen database
	vals, offs := col.Values, col.Offsets
	atomic := col.Kind == dataset.Atomic // one cell a row; otherwise a CSR run
	if n <= 0 {
		n = len(records) // no bucket holds more
	}

	f := filler{n: n, buckets: make([]bucketFill, col.NValues), offsets: make([]int, col.NValues+1)}
	if atomic {
		for _, r := range records {
			f.buckets[vals[rowOf[r]]].count++
		}
	} else {
		for _, r := range records {
			row := rowOf[r]
			for _, v := range vals[offs[row]:offs[row+1]] {
				f.buckets[v].count++
			}
		}
	}
	for v := range f.buckets {
		f.offsets[v+1] = f.offsets[v] + min(f.buckets[v].count, n)
		f.buckets[v].pick = f.nextPick(v)
	}

	f.out = make([]int32, f.offsets[col.NValues])
	if atomic {
		for _, r := range records {
			f.meet(vals[rowOf[r]], r)
		}
	} else {
		for _, r := range records {
			row := rowOf[r]
			for _, v := range vals[offs[row]:offs[row+1]] {
				f.meet(v, r)
			}
		}
	}
	return &Partition{dict: t.Dict(a), offsets: f.offsets, records: f.out}, nil
}

// filler is Partition's fill pass: it meets the input's records bucket by
// bucket in input order and writes the ones each bucket keeps.
type filler struct {
	n       int
	buckets []bucketFill
	offsets []int
	out     []int32
}

// bucketFill is one bucket's progress through the fill pass.
type bucketFill struct {
	count int // the bucket's records in the input
	seen  int // of them, the ones the pass has met
	kept  int // of them, the ones it has written
	pick  int // the position among them of the next one to keep; -1 once full
}

// nextPick is where bucket v's next kept record is among its input
// records: every record of a bucket of at most n, Sample's picks of a
// fuller one.
func (f *filler) nextPick(v int) int {
	b := &f.buckets[v]
	switch {
	case b.kept == f.offsets[v+1]-f.offsets[v]:
		return -1
	case b.count <= f.n:
		return b.kept
	}
	return samplePos(b.kept, b.count, f.n)
}

// meet hands the fill pass bucket v's next input record r.
func (f *filler) meet(v dataset.ValueID, r int32) {
	b := &f.buckets[v]
	if b.seen == b.pick {
		f.keep(v, r)
	}
	b.seen++
}

// keep writes r, the record bucket v's next pick is on, to the bucket —
// twice if Sample picks it twice.
func (f *filler) keep(v dataset.ValueID, r int32) {
	b := &f.buckets[v]
	for b.seen == b.pick {
		f.out[f.offsets[v]+b.kept] = r
		b.kept++
		b.pick = f.nextPick(int(v))
	}
}

// Bucket returns the records holding the given value of the partitioning
// attribute (Sample of them under a bound). The slice aliases the
// partition's backing array with its capacity clipped, so appending to it
// cannot reach the next bucket; its elements must not be written.
func (p *Partition) Bucket(value string) ([]int32, error) {
	v, ok := p.dict.Lookup(value)
	if !ok {
		return nil, fmt.Errorf("query: partitioning attribute has no value %q", value)
	}
	lo, hi := p.offsets[v], p.offsets[v+1]
	return p.records[lo:hi:hi], nil
}

// Len is the number of records the partition holds: the input's records
// counted once per value they hold, at most n a bucket under a bound.
func (p *Partition) Len() int { return len(p.records) }
