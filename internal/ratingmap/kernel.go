package ratingmap

// The fused columnar scan kernel: Accumulator.Update.
//
// Every rating map is `ratings ⋈ entity GROUP BY entity.attr, score`. A
// batch of records reaches a candidate's counter block (partial.hist) by
// one of two strategies, chosen per side per batch from the input's shape
// alone (foldPays):
//
//   - Direct (scanSide): the join is resolved once per tile of scanTile
//     records — entity rows, scores, and per atomic attribute the value
//     ids, gathered into arrays on the stack — and every candidate then
//     runs one tight increment loop over the tile. dataset.AttrColumn
//     supplies per-attribute dictionary-coded value columns as flat arrays
//     (atomic: one id per entity row; multi-valued: CSR runs in one shared
//     backing array), no interface dispatch, no [][]ValueID chase. The
//     inner loop is branch-free: a missing value (id 0) lands in the
//     block's row 0 and a missing score (score 0) in its row's column 0,
//     the discard cells partial.rows never shows a reader. The kind
//     dispatch is hoisted out of the record loop: tileAtomic, tileAtomicOne
//     and tileMulti are separate loops chosen once per attribute per tile.
//   - Entity-first (foldSide): aggregate below the join. All maps of one
//     side and dimension share the same per-entity score histogram, so one
//     pass over the batch per (side, dimension) counts E[row][score], and
//     each candidate then adds E[row] to the block row of the entity's
//     value (foldAtomic) or values (foldMulti). A candidate costs the
//     side's entities instead of the batch's records — the kernel does
//     fewer increments, which is the one thing a scan bound by its
//     increments can be given.
//
// Exactness is the contract. The direct loop adds one to cell
// (value(row(r)), score(r)) for every record r; the fold adds, for every
// entity row, the number of the batch's records with that row and score to
// the same cell. Integer addition commutes, so the two strategies — and the
// row-oriented reference scan the tests keep (reference_test.go) — leave
// every cell, discard cells included, identical after every Update: same
// Digest, same NumRecords, same wire frame, same RecordVisits. The engine
// differential harness (7500+ randomized cases plus kernel-adversarial
// families) and FuzzScanKernel enforce it.
//
// Counter width: a cell counts the records of one rating group holding one
// value with one score. A group lists a record position once, a value set
// lists a value once, and record positions are int32 (as are the CSR
// offsets), so no cell can exceed 2^31-1: int32 cannot overflow.

import (
	"sync"

	"subdex/internal/dataset"
)

// foldCrossover is how many records a batch must hold per cell of a side's
// entity block (rows × (scale+1)) before the side is scanned entity-first.
// Measured, not tuned per dataset: BenchmarkFoldCrossover forces both
// strategies on batches of half, one and two entity blocks over the three
// generated shapes (kernel_bench_test.go; one vCPU, best of 5). At one
// record per cell the fold is ahead on every side that can get there —
// yelp/items/cells=558/batch=558 97 → 48 µs, movielens/items 274 → 130 µs,
// movielens/reviewers 100 → 62 µs, demo/items 3.5 → 2.0 µs,
// demo/reviewers 36 → 31 µs — and at half a record per cell it loses on
// three of the five (0.73–1.13×): a candidate's fold costs about a
// nanosecond per cell, its direct scan one and a half to two per record.
const foldCrossover = 1

// foldPays reports whether a side of rows entities scans a batch of n
// records entity-first. It sees nothing but the input's shape, so one
// batch always takes one path, whatever accumulator it lands in.
func foldPays(rows, stride, n int) bool {
	return rows*stride <= foldCrossover*n
}

// Update feeds a batch of rating-record positions into every candidate map,
// one side at a time: the shared scans of a side all resolve a record to
// the same entity row, which is what the fold shares. The engine's phase
// loop calls it once per phase, a shard worker once per shard.
func (a *Accumulator) Update(records []int32) {
	a.recordVisits += len(a.groups) * len(records)
	stride := 0
	for _, d := range a.db.Ratings.Dimensions {
		stride = max(stride, d.Scale+1)
	}
	for _, t := range [...]*dataset.EntityTable{a.db.Reviewers, a.db.Items} {
		if foldPays(t.Len(), stride, len(records)) {
			a.foldSide(t, records)
		} else {
			a.scanSide(t, records)
		}
	}
}

// scanTile is how many records the direct strategy joins at a time, and
// tileDims how many rating dimensions its stack scratch holds: 4 B of entity
// row and 4 B of value id a record plus one byte of score a record and
// dimension, 3 KB in all, so a tile's gathers and every increment loop over
// it run out of L1. Both are fixed by BenchmarkUpdateKernel's …/tiled
// against …/perkey arms (kernel_bench_test.go; one vCPU, best of 5, µs):
//
//	                      batch=50        batch=2000     batch=50000
//	yelp/reviewers      5.9 → 3.6       397 → 217      4 332 → 2 821
//	yelp/items          5.4 → 3.5       192 → 115      4 158 → 2 582
//	hotels/reviewers    1.3 → 1.1        52 → 40
//	hotels/items        2.1 → 1.6        87 → 58
//	movielens/reviewers 0.62 → 0.40      18 → 14         350 → 376
//	movielens/items     0.76 → 0.64      23 → 18         747 → 716
//
// (Hotels has 35 912 ratings; at 50 000 records both MovieLens sides fold
// anyway. Two runs of one arm differ by up to 15% on this box.)
//
// The frame is zeroed on every scanSide call, which is what the tile size
// trades against: tiles of 128, 256, 512 and 1 024 records are within noise
// of each other from 2 000 records up on all three shapes (Yelp's reviewers
// at 50 000: 2.76–2.95 ms), while MovieLens' reviewers at 50 records — one
// dimension, so nothing to share but the rows — read 0.39, 0.44, 0.72 and
// 0.81 µs. 256 keeps the 50-record batches a guided step is made of ahead
// on every shape. Yelp and Hotels have four dimensions and MovieLens one;
// each further dimension the scratch held would be scanTile more bytes to
// zero per call on all of them.
const (
	scanTile = 256
	tileDims = 4
)

// scanSide is the direct strategy. The record → entity row → value id →
// counter chain of a candidate's increment goes through three arrays, two
// of them indexed at random, and a side's candidates share all of it but
// the last step: every attribute shares the row and the scores, every
// dimension of an attribute shares the value id. So the join is resolved
// once per tile of scanTile records — the side's entity rows, each live
// dimension's scores, and per atomic attribute the value ids, gathered into
// arrays on this frame — and the per-candidate loop that remains reads two
// small sequential arrays. The scratch is the stack's on purpose: a scan
// must allocate nothing and retain nothing (a pooled block sized by the
// batch is emptied every GC cycle and shows up in alloc_kb_per_step).
//
// Every record still adds one to the same cell it did before, discard
// cells included; only the order of the increments changes, and integer
// addition commutes. A database with more dimensions than the scratch holds
// takes the per-key loop.
func (a *Accumulator) scanSide(t *dataset.EntityTable, records []int32) {
	dims := a.db.Ratings.Scores
	if len(dims) > tileDims {
		a.scanSidePerKey(t, records)
		return
	}
	var live [tileDims]bool // the dimensions some candidate of the side aggregates
	var rowOf []int32
	for gi := range a.groups {
		if g := &a.groups[gi]; g.t == t {
			rowOf = g.rowOf
			for _, i := range g.members {
				live[a.parts[i].key.Dim] = true
			}
		}
	}
	if rowOf == nil {
		return
	}
	var (
		rows [scanTile]int32
		vals [scanTile]dataset.ValueID
		sc   [tileDims][scanTile]dataset.Score
	)
	for len(records) > 0 {
		tile := records[:min(scanTile, len(records))]
		records = records[len(tile):]
		n := len(tile)
		for j, r := range tile {
			rows[j] = rowOf[r]
		}
		for d, scores := range dims {
			if live[d] {
				for j, r := range tile {
					sc[d][j] = scores[r]
				}
			}
		}
		for gi := range a.groups {
			g := &a.groups[gi]
			if g.t != t {
				continue
			}
			col := g.col
			switch {
			case col.Kind != dataset.Atomic:
				for _, i := range g.members {
					p := &a.parts[i]
					tileMulti(p.hist, p.scale+1, col.Values, col.Offsets, rows[:n], sc[p.key.Dim][:n])
				}
			case len(g.members) == 1: // nobody to share the value ids with
				p := &a.parts[g.members[0]]
				tileAtomicOne(p.hist, p.scale+1, col.Values, rows[:n], sc[p.key.Dim][:n])
			default:
				for j, row := range rows[:n] {
					vals[j] = col.Values[row]
				}
				for _, i := range g.members {
					p := &a.parts[i]
					tileAtomic(p.hist, p.scale+1, vals[:n], sc[p.key.Dim][:n])
				}
			}
		}
	}
}

// tileAtomic is the increment loop of an atomic candidate over one joined
// tile: vals[j] and scores[j] are record j's value id and score.
func tileAtomic(hist []int32, stride int, vals []dataset.ValueID, scores []dataset.Score) {
	scores = scores[:len(vals)]
	for j, v := range vals {
		hist[int(v)*stride+int(scores[j])]++
	}
}

// tileAtomicOne is tileAtomic for an attribute with one live candidate — a
// pruned accumulator's, or any attribute of a one-dimension database: the
// value id is looked up where it is used, since gathering it first would be
// a second pass for nothing (MovieLens' reviewers at 2 000 records: 15.9 µs
// against 25.8 gathered and 22.6 per key).
func tileAtomicOne(hist []int32, stride int, vals []dataset.ValueID, rows []int32, scores []dataset.Score) {
	scores = scores[:len(rows)]
	for j, row := range rows {
		hist[int(vals[row])*stride+int(scores[j])]++
	}
}

// tileMulti is scanMulti over one joined tile: the rows are resolved, the
// value loop walks each row's CSR run.
func tileMulti(hist []int32, stride int, vals []dataset.ValueID, offs []int32, rows []int32, scores []dataset.Score) {
	scores = scores[:len(rows)]
	for j, row := range rows {
		s := int(scores[j])
		for _, v := range vals[offs[row]:offs[row+1]] {
			hist[int(v)*stride+s]++
		}
	}
}

// scanSidePerKey is the direct strategy without the tile: one loop over the
// batch per candidate of the side, each resolving the join for itself. It
// is what a database of more than tileDims dimensions scans with, and the
// arm the tile is measured and tested against.
func (a *Accumulator) scanSidePerKey(t *dataset.EntityTable, records []int32) {
	for gi := range a.groups {
		g := &a.groups[gi]
		if g.t != t {
			continue
		}
		col := g.col
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

// foldSide is the entity-first strategy: per live dimension of the side,
// one pass over the batch counts its records by (entity row, score), and
// every candidate of that dimension then adds each entity's counts to the
// block row(s) of the entity's value(s) — work in the side's entities, not
// in the batch.
func (a *Accumulator) foldSide(t *dataset.EntityTable, records []int32) {
	block := entityBlocks.Get().(*entityBlock)
	for d, dim := range a.db.Ratings.Dimensions {
		stride := dim.Scale + 1
		var e []int32 // counted when the dimension's first candidate turns up
		for gi := range a.groups {
			g := &a.groups[gi]
			if g.t != t {
				continue
			}
			for _, i := range g.members {
				p := &a.parts[i]
				if p.key.Dim != d {
					continue
				}
				if e == nil {
					e = block.zeroed(t.Len() * stride)
					countEntities(e, stride, g.rowOf, a.db.Ratings.Scores[d], records)
				}
				if g.col.Kind == dataset.Atomic {
					foldAtomic(p.hist, stride, g.col.Values, e)
				} else {
					foldMulti(p.hist, stride, g.col.Values, g.col.Offsets, e)
				}
			}
		}
	}
	entityBlocks.Put(block)
}

// entityBlock is foldSide's scratch, the [rows × (scale+1)] per-entity
// score counts of one dimension. It is borrowed for the length of one
// Update and handed back, so an accumulator — a cached one above all —
// never holds one; pooling the struct rather than the slice keeps Get and
// Put free of allocations.
type entityBlock struct{ cells []int32 }

var entityBlocks = sync.Pool{New: func() any { return new(entityBlock) }}

// zeroed returns the block resized to n zero cells.
func (b *entityBlock) zeroed(n int) []int32 {
	if cap(b.cells) < n {
		b.cells = make([]int32, n)
		return b.cells
	}
	b.cells = b.cells[:n]
	clear(b.cells)
	return b.cells
}

// countEntities is the aggregation below the join: e[row*stride+s] counts
// the batch's records of entity row with score s, score 0 included.
func countEntities(e []int32, stride int, rowOf []int32, scores []dataset.Score, records []int32) {
	for _, r := range records {
		e[int(rowOf[r])*stride+int(scores[r])]++
	}
}

// foldAtomic adds every entity's counts to the block row of its value —
// row 0 for a missing one, like scanAtomic.
func foldAtomic(hist []int32, stride int, vals []dataset.ValueID, e []int32) {
	for row, v := range vals {
		src := e[row*stride : (row+1)*stride]
		dst := hist[int(v)*stride : (int(v)+1)*stride]
		for s, c := range src {
			dst[s] += c
		}
	}
}

// foldMulti adds every entity's counts to the block row of each value in
// its CSR run.
func foldMulti(hist []int32, stride int, vals []dataset.ValueID, offs []int32, e []int32) {
	for row := 0; row+1 < len(offs); row++ {
		src := e[row*stride : (row+1)*stride]
		for _, v := range vals[offs[row]:offs[row+1]] {
			dst := hist[int(v)*stride : (int(v)+1)*stride]
			for s, c := range src {
				dst[s] += c
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
