package query

import (
	"fmt"
	"slices"

	"subdex/internal/dataset"
)

// Partition is a record list bucketed by one attribute: bucket v holds, in
// the input's order, the records whose entity has value v — exactly the
// records Materialize would return for the input's description with
// ⟨attr, v⟩ added, because a bucket admits a row iff HasValue does. A row
// of a multi-valued attribute lands in one bucket per value it holds, a
// row with a missing atomic value in the missing label's bucket.
//
// It is what lets the Recommendation Builder derive its candidates' groups
// from a group it already holds: every value of the attribute is answered
// by two linear passes over the frozen AttrColumn (count, then fill one
// CSR backing array) instead of one entity-table materialization and one
// sort per value. A Partition is immutable once built.
type Partition struct {
	dict    *dataset.Dictionary
	offsets []int   // bucket v is records[offsets[v]:offsets[v+1]]
	records []int32 // the buckets, back to back in value-id order
}

// Partition buckets records — positions into the rating table, typically an
// ascending RatingGroup.Records — by the given attribute.
func (e *Engine) Partition(records []int32, side Side, attr string) (*Partition, error) {
	t := e.table(side)
	a := t.Schema.Index(attr)
	if a < 0 {
		return nil, fmt.Errorf("query: %s has no attribute %q", side, attr)
	}
	rowOf := e.DB.Ratings.Reviewer
	if side == ItemSide {
		rowOf = e.DB.Ratings.Item
	}
	col := t.Column(a) // non-nil: NewEngine only wraps a frozen database
	vals, offs := col.Values, col.Offsets
	atomic := col.Kind == dataset.Atomic // one cell a row; otherwise a CSR run

	// offsets[v+1] first counts bucket v, then the prefix sum turns it into
	// the bucket's end.
	offsets := make([]int, col.NValues+1)
	if atomic {
		for _, r := range records {
			offsets[vals[rowOf[r]]+1]++
		}
	} else {
		for _, r := range records {
			row := rowOf[r]
			for _, v := range vals[offs[row]:offs[row+1]] {
				offsets[v+1]++
			}
		}
	}
	for v := 0; v < col.NValues; v++ {
		offsets[v+1] += offsets[v]
	}

	out := make([]int32, offsets[col.NValues])
	next := slices.Clone(offsets[:col.NValues])
	if atomic {
		for _, r := range records {
			v := vals[rowOf[r]]
			out[next[v]] = r
			next[v]++
		}
	} else {
		for _, r := range records {
			row := rowOf[r]
			for _, v := range vals[offs[row]:offs[row+1]] {
				out[next[v]] = r
				next[v]++
			}
		}
	}
	return &Partition{dict: t.Dict(a), offsets: offsets, records: out}, nil
}

// Bucket returns the records holding the given value of the partitioning
// attribute. The slice aliases the partition's backing array with its
// capacity clipped, so appending to it cannot reach the next bucket; its
// elements must not be written.
func (p *Partition) Bucket(value string) ([]int32, error) {
	v, ok := p.dict.Lookup(value)
	if !ok {
		return nil, fmt.Errorf("query: partitioning attribute has no value %q", value)
	}
	lo, hi := p.offsets[v], p.offsets[v+1]
	return p.records[lo:hi:hi], nil
}

// Len is the partition's size: the input's records counted once per value
// they hold.
func (p *Partition) Len() int { return len(p.records) }
