package ratingmap

import (
	"fmt"
	"sort"
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
	var b strings.Builder
	fmt.Fprintf(&b, "%d.%s.dim%d|n=%d|", rm.Side, rm.Attr, rm.Dim, rm.TotalRecords)
	sgs := append([]Subgroup(nil), rm.Subgroups...)
	sort.Slice(sgs, func(i, j int) bool { return sgs[i].Value < sgs[j].Value })
	for _, sg := range sgs {
		fmt.Fprintf(&b, "%d:%v;", sg.Value, sg.Counts)
	}
	return b.String()
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
