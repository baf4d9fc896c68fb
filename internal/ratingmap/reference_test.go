package ratingmap

import (
	"slices"
	"testing"

	"subdex/internal/dataset"
)

// updateReference is the row-oriented reference scan, the oracle both
// kernel strategies are proven bit-identical against: per record, an
// attribute-keyed lookup, a kind switch, a MultiValues slice-of-slices
// chase, and explicit missing-value and missing-score branches in front of
// every increment. Deliberately simple. It writes the same block Update
// does, so every reader — Snapshot, NumRecords, EncodeWire, Merge — serves
// as the comparison.
func (a *Accumulator) updateReference(records []int32) {
	for gi := range a.groups {
		g := &a.groups[gi]
		a.recordVisits += len(records)
		kind := g.t.Schema.At(g.ai).Kind
		for _, r := range records {
			row := int(g.rowOf[r])
			switch kind {
			case dataset.Atomic:
				a.addAll(g, g.t.AtomicValue(g.ai, row), r)
			case dataset.MultiValued:
				for _, v := range g.t.MultiValues(g.ai, row) {
					a.addAll(g, v, r)
				}
			}
		}
	}
}

// addAll is the reference scan's increment, for every candidate of the
// group — the one attribute lookup serves all of its dimensions. What the
// kernel sends to the discard cells is branched around here.
func (a *Accumulator) addAll(g *attrGroup, v dataset.ValueID, r int32) {
	for _, i := range g.members {
		p := &a.parts[i]
		if s := a.db.Ratings.Scores[p.key.Dim][r]; v != dataset.MissingValue && s != 0 {
			p.hist[int(v)*(p.scale+1)+int(s)]++
		}
	}
}

// updateWith scans a batch with one strategy on both sides, whatever
// foldPays would have chosen for it: foldSide, scanSide (the direct
// strategy as shipped — tiled, up to tileDims dimensions) or scanSidePerKey
// (the direct strategy without the tile).
func (a *Accumulator) updateWith(strategy func(*Accumulator, *dataset.EntityTable, []int32), records []int32) {
	a.recordVisits += len(a.groups) * len(records)
	strategy(a, a.db.Reviewers, records)
	strategy(a, a.db.Items, records)
}

// assertBlocksEqual compares two accumulators over the same keys cell for
// cell, discard cells included — stricter than any digest, which only
// sees what partial.rows shows.
func assertBlocksEqual(t *testing.T, got, want *Accumulator, label string) {
	t.Helper()
	for i := range want.parts {
		if !slices.Equal(got.parts[i].hist, want.parts[i].hist) {
			t.Fatalf("%s: block of %v differs\n got: %v\nwant: %v", label, want.parts[i].key, got.parts[i].hist, want.parts[i].hist)
		}
	}
	if got.recordVisits != want.recordVisits {
		t.Fatalf("%s: RecordVisits %d vs %d", label, got.recordVisits, want.recordVisits)
	}
}

// firstFoldedLen is the shortest batch a side of rows entities scans
// entity-first.
func firstFoldedLen(rows, stride int) int {
	return (rows*stride + foldCrossover - 1) / foldCrossover
}
