package ratingmap

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// This file implements deterministic accumulator merging, the substrate of
// the engine's sharded parallel scan: each worker accumulates a private
// shard of the record range (no locks on the per-record hot loop), then the
// shards are merged into the target accumulator *in shard order*. All
// accumulator state is integer histogram counts, so merging is plain
// addition — the merged state is bit-for-bit identical to a sequential scan
// of the concatenated ranges, independent of thread scheduling. The
// differential harness in internal/engine and FuzzMerge below this package
// prove that equivalence on randomized inputs.

// Desc returns the group description the accumulator was created for, so
// the engine can spawn shard accumulators structurally identical to the
// target without re-threading the description.
func (a *Accumulator) Desc() query.Description { return a.desc }

// Merge folds other's partial state into a. Candidates are matched by key:
// blocks of shared candidates are added cell for cell (integer addition is
// associative and commutative, so any merge order yields identical counts;
// the engine still merges in shard order so key registration order is
// reproducible run-to-run); candidates present only in other are
// deep-copied into a (registered at the end of a's key order, preserving
// other's order). Both accumulators must observe the same database, whose
// dictionaries size the blocks — merging shards of one group's record
// range is the intended use. Merge is exact: all state is integer counts,
// so
//
//	Merge(accumulate(r[:i]), accumulate(r[i:])) == accumulate(r)
//
// for every split point i, bit for bit.
func (a *Accumulator) Merge(other *Accumulator) {
	for j := range other.parts {
		op := &other.parts[j]
		// Shards are built from their target's keys, so a candidate is
		// almost always at the same position on both sides.
		i := j
		if i >= len(a.order) || a.order[i] != op.key {
			i = a.index(op.key)
		}
		if i < 0 {
			copy(a.register(op.key).hist, op.hist) // one database: blocks of one size
			continue
		}
		hist := a.parts[i].hist
		for c, n := range op.hist {
			hist[c] += n
		}
	}
	a.recordVisits += other.recordVisits
}

// NumRecords reports how many scored records the candidate has accumulated,
// with multiplicity for multi-valued attributes (0 for unknown candidates).
// Exposed for the differential test harness and the bench's exactness
// checks.
func (a *Accumulator) NumRecords(k Key) int {
	total := 0
	if i := a.index(k); i >= 0 {
		a.parts[i].rows(func(_ dataset.ValueID, _ []int32, n int) { total += n })
	}
	return total
}

// Digest renders a canonical, byte-stable fingerprint of a rating map:
// the key, the total record count, and every subgroup's value id and full
// histogram, in subgroup-value order (independent of the display sort).
// Two rating maps digest equally iff their accumulated counts are
// identical — the "byte-identical rating maps" check of the differential
// harness and of the benchmark's per-step oracle comparison.
func (rm *RatingMap) Digest() string {
	// Rendered by appends into a buffer that starts on the stack; only the
	// returned string, cut to size, reaches the heap for an ordinary map.
	var buf [1024]byte
	b := strconv.AppendInt(buf[:0], int64(rm.Side), 10)
	b = append(append(b, '.'), rm.Attr...)
	b = append(b, ".dim"...)
	b = strconv.AppendInt(b, int64(rm.Dim), 10)
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(rm.TotalRecords), 10)
	b = append(b, '|')
	sgs := rm.Subgroups
	byValue := func(x, y Subgroup) int { return cmp.Compare(x.Value, y.Value) }
	if !slices.IsSortedFunc(sgs, byValue) { // a displayed map is in score order
		var sorted [16]Subgroup
		sgs = append(sorted[:0], sgs...)
		slices.SortFunc(sgs, byValue)
	}
	for i := range sgs {
		b = strconv.AppendUint(b, uint64(sgs[i].Value), 10)
		b = append(b, ':', '[')
		for j, c := range sgs[i].Counts {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']', ';')
	}
	return string(b)
}

// DigestMaps digests a whole result set in order, newline-separated.
func DigestMaps(maps []*RatingMap) string {
	var b strings.Builder
	for _, rm := range maps {
		b.WriteString(rm.Digest())
		b.WriteByte('\n')
	}
	return b.String()
}
