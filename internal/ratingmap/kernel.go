package ratingmap

// The fused columnar scan kernel: the raw-speed half of ROADMAP open item 4.
//
// The reference path (updateReference) walks every record through an
// attribute lookup, a kind switch, a MultiValues slice-of-slices chase and
// the map-shaped partial.add — per-record branches and pointer hops that
// dominate cold scans now that parallelism and caching are in place. The
// kernel evaluates group membership and accumulates rating histograms in
// one cache-friendly pass over flat columnar arrays instead:
//
//   - dataset.AttrColumn supplies per-attribute dictionary-coded value
//     columns as flat arrays (atomic: one id per entity row; multi-valued:
//     CSR runs in one shared backing array) — two array indexings reach a
//     record's value ids, no interface dispatch, no [][]ValueID chase;
//   - each partial accumulates into a dense [NValues × (scale+1)] int32
//     counter block: the inner loop is branch-free, because missing values
//     (id 0) land in the block's row 0 and missing scores (score 0) in each
//     row's column 0, both discarded by the fold instead of branched around
//     per record;
//   - a query.Bitset of touched value ids — set branchlessly alongside each
//     counter increment — gives the fold its membership test: only rows the
//     scan actually wrote are folded into (and re-zeroed out of) the
//     map-shaped partial state, so scans of filtered subsets touching few
//     values pay for few rows;
//   - the kind dispatch is hoisted out of the record loop entirely: the
//     Atomic and MultiValued scans are separate tight loops chosen once per
//     attribute per Update call.
//
// Exactness is the contract: the fold reuses partial.histogram, the same
// entry-creation bookkeeping as the reference's per-record add, so after
// every Update call the kernel's accumulator state is bit-for-bit
// identical to the reference's — same Digest, same NumRecords, same
// RecordVisits. The engine differential harness (7500+ randomized cases
// plus kernel-adversarial families) and FuzzScanKernel enforce it.
//
// Counter width: the block is int32, folded into the int-typed partial
// counts after every Update call, so a single cell would have to receive
// more than 2^31-1 increments within ONE Update batch to overflow —
// batches are record slices (and the engine phases them), so the bound is
// the record-slice length, far below any dataset this process can hold.

import (
	"subdex/internal/dataset"
	"subdex/internal/query"
)

// kernelScratch is a partial's reusable dense accumulation state.
type kernelScratch struct {
	// dense is the [NValues × (scale+1)] counter block: cell v*(scale+1)+s
	// counts records of subgroup value v with score s, including the
	// discard row v=0 (missing value) and discard column s=0 (missing
	// score). Zero outside Update.
	dense []int32
	// touched marks the value ids whose block rows were written this
	// Update call; the fold visits exactly these rows. Empty outside
	// Update.
	touched *query.Bitset
}

// ensure sizes the scratch for a dictionary of nValues ids. Blocks only
// grow; a shard accumulator allocates each block once per candidate. The
// touched bitset is only materialized for tracked scans (track=true) —
// sweep-folded scans never read it.
func (ks *kernelScratch) ensure(nValues, scale int, track bool) {
	if need := nValues * (scale + 1); len(ks.dense) < need {
		ks.dense = make([]int32, need)
	}
	if track && (ks.touched == nil || ks.touched.Universe() < nValues) {
		ks.touched = query.NewBitset(nValues)
	}
}

// updateKernel is the fused columnar counterpart of updateReference.
func (a *Accumulator) updateKernel(records []int32) {
	//subdex:orderinsensitive each iteration mutates only its own attribute's partials; records are scanned in slice order within each, so attribute order cannot leak into any histogram or discovery order
	for ak, ps := range a.byAttr {
		t, rowOf, ai := a.resolveAttr(ak)
		if ai < 0 {
			continue
		}
		a.recordVisits += len(records)
		col := t.Column(ai) // non-nil: a.kernel is only set on a frozen database
		for _, p := range ps {
			// Fold strategy: sweeping every dense row costs one pass over
			// NValues×(scale+1) cells, tracking touched values costs one
			// Bitset.Set per counter increment (~20% of scan time). Sweep
			// unless the dictionary is large relative to the batch — then
			// most rows are untouched and the bitset pays for itself.
			track := col.NValues*(p.scale+1) > 4*len(records)+256
			p.ks.ensure(col.NValues, p.scale, track)
			scores := a.db.Ratings.Scores[p.key.Dim]
			switch {
			case col.Kind == dataset.Atomic && track:
				scanAtomic(p.ks, p.scale, col.Values, rowOf, scores, records)
			case col.Kind == dataset.Atomic:
				scanAtomicSweep(p.ks.dense, p.scale, col.Values, rowOf, scores, records)
			case track:
				scanMulti(p.ks, p.scale, col.Values, col.Offsets, rowOf, scores, records)
			default:
				scanMultiSweep(p.ks.dense, p.scale, col.Values, col.Offsets, rowOf, scores, records)
			}
			if track {
				p.fold()
			} else {
				p.foldSweep(col.NValues)
			}
		}
	}
}

// scanAtomic accumulates an atomic attribute: per record, two flat array
// indexings (entity row, value id) and one branch-free counter increment.
func scanAtomic(ks kernelScratch, scale int, vals []dataset.ValueID, rowOf []int32, scores []dataset.Score, records []int32) {
	dense, touched := ks.dense, ks.touched
	stride := scale + 1
	for _, r := range records {
		v := int(vals[rowOf[r]])
		dense[v*stride+int(scores[r])]++
		touched.Set(v)
	}
}

// scanMulti accumulates a multi-valued attribute over its CSR runs: the
// score load and row resolution are hoisted per record, the value loop
// walks one contiguous id run.
func scanMulti(ks kernelScratch, scale int, vals []dataset.ValueID, offs []int32, rowOf []int32, scores []dataset.Score, records []int32) {
	dense, touched := ks.dense, ks.touched
	stride := scale + 1
	for _, r := range records {
		row := rowOf[r]
		s := int(scores[r])
		for i := offs[row]; i < offs[row+1]; i++ {
			v := int(vals[i])
			dense[v*stride+s]++
			touched.Set(v)
		}
	}
}

// scanAtomicSweep is scanAtomic without touched tracking: one increment
// per record and nothing else — the sweep fold visits every dense row.
func scanAtomicSweep(dense []int32, scale int, vals []dataset.ValueID, rowOf []int32, scores []dataset.Score, records []int32) {
	stride := scale + 1
	for _, r := range records {
		dense[int(vals[rowOf[r]])*stride+int(scores[r])]++
	}
}

// scanMultiSweep is scanMulti without touched tracking.
func scanMultiSweep(dense []int32, scale int, vals []dataset.ValueID, offs []int32, rowOf []int32, scores []dataset.Score, records []int32) {
	stride := scale + 1
	for _, r := range records {
		row := rowOf[r]
		s := int(scores[r])
		for i := offs[row]; i < offs[row+1]; i++ {
			dense[int(vals[i])*stride+s]++
		}
	}
}

// foldRow drains one dense row into the map-shaped partial state and
// re-zeroes it. Row 0 (missing value) and each row's column 0 (missing
// score) are discarded — the branch the scan skipped per record happens
// here, once per folded value. Entry creation goes through
// partial.histogram, so the folded state is bit-identical to what the
// reference's per-record adds would have produced.
func (p *partial) foldRow(v int) {
	dense := p.ks.dense
	stride := p.scale + 1
	base := v * stride
	if v == 0 {
		// Missing-value discard row: just re-zero it.
		clear(dense[base : base+stride])
		return
	}
	added := 0
	for s := 1; s <= p.scale; s++ {
		added += int(dense[base+s])
	}
	if added > 0 {
		c := p.histogram(dataset.ValueID(v))
		for s := 1; s <= p.scale; s++ {
			c[s-1] += int(dense[base+s])
		}
		p.nRecords += added
	}
	clear(dense[base : base+stride])
}

// fold visits exactly the rows a tracked scan touched, in ascending value
// order — the same order the sweep fold walks, so both produce identical
// entry-creation sequences.
func (p *partial) fold() {
	p.ks.touched.Range(p.foldRow)
	p.ks.touched.Reset()
}

// foldSweep visits every dense row of the dictionary, touched or not;
// untouched rows are all-zero and fold to nothing.
func (p *partial) foldSweep(nValues int) {
	for v := 0; v < nValues; v++ {
		p.foldRow(v)
	}
}
