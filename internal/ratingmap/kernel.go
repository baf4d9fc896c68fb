package ratingmap

// The fused columnar scan kernel.
//
// The reference path (updateReference) walks every record through an
// attribute lookup, a kind switch, a MultiValues slice-of-slices chase and
// two branches in addAll — per-record branches and pointer hops that
// dominate cold scans. The kernel increments the same counter block
// (partial.hist) in one pass over flat columnar arrays instead:
//
//   - dataset.AttrColumn supplies per-attribute dictionary-coded value
//     columns as flat arrays (atomic: one id per entity row; multi-valued:
//     CSR runs in one shared backing array) — two array indexings reach a
//     record's value ids, no interface dispatch, no [][]ValueID chase;
//   - the inner loop is branch-free: a missing value (id 0) lands in the
//     block's row 0 and a missing score (score 0) in its row's column 0,
//     the discard cells partial.rows never shows a reader;
//   - the kind dispatch is hoisted out of the record loop: scanAtomic and
//     scanMulti are separate tight loops chosen once per attribute per
//     Update call.
//
// Exactness is the contract: both paths write the same block, so after
// every Update call their accumulator state agrees cell for cell outside
// the discard cells — same Digest, same NumRecords, same RecordVisits. The
// engine differential harness (7500+ randomized cases plus
// kernel-adversarial families) and FuzzScanKernel enforce it.
//
// Counter width: a cell counts the records of one rating group holding one
// value with one score. A group lists a record position once, a value set
// lists a value once, and record positions are int32 (as are the CSR
// offsets), so no cell can exceed 2^31-1: int32 cannot overflow.

import "subdex/internal/dataset"

// updateKernel is the fused columnar counterpart of updateReference: the
// same groups in the same order, one tight loop per candidate.
func (a *Accumulator) updateKernel(records []int32) {
	for gi := range a.groups {
		g := &a.groups[gi]
		a.recordVisits += len(records)
		col := g.col // non-nil: a.kernel is only set on a frozen database
		for _, i := range g.members {
			p := &a.parts[i]
			scores := a.db.Ratings.Scores[p.key.Dim]
			if col.Kind == dataset.Atomic {
				scanAtomic(p.hist, p.scale+1, col.Values, g.rowOf, scores, records)
			} else {
				scanMulti(p.hist, p.scale+1, col.Values, col.Offsets, g.rowOf, scores, records)
			}
		}
	}
}

// scanAtomic accumulates an atomic attribute: per record, two flat array
// indexings (entity row, value id) and one branch-free counter increment.
func scanAtomic(hist []int32, stride int, vals []dataset.ValueID, rowOf []int32, scores []dataset.Score, records []int32) {
	for _, r := range records {
		hist[int(vals[rowOf[r]])*stride+int(scores[r])]++
	}
}

// scanMulti accumulates a multi-valued attribute over its CSR runs: the
// score load and row resolution are hoisted per record, the value loop
// walks one contiguous id run.
func scanMulti(hist []int32, stride int, vals []dataset.ValueID, offs []int32, rowOf []int32, scores []dataset.Score, records []int32) {
	for _, r := range records {
		row := rowOf[r]
		s := int(scores[r])
		for i := offs[row]; i < offs[row+1]; i++ {
			hist[int(vals[i])*stride+s]++
		}
	}
}
