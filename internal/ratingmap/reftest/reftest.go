// Package reftest is the brute-force oracle the scan kernel's differential
// tests share: one candidate's value → score histogram, tallied one record
// at a time with map bookkeeping — no dense block, no discard cells, no
// sharing, no merging. It re-derives the grouping semantics (atomic vs
// multi-valued, missing attribute values, missing scores) from the
// row-oriented dataset accessors and imports no ratingmap code, so that
// package's own tests can use it. Test code only: no binary links it.
package reftest

import (
	"subdex/internal/dataset"
	"subdex/internal/query"
)

// Histogram tallies the candidate grouping by attr (on side) over dim:
// out[v][s-1] is the number of records whose entity holds value v and whose
// score on dim is s. A missing value or a missing score counts nowhere.
func Histogram(db *dataset.DB, side query.Side, attr string, dim int, records []int32) map[dataset.ValueID][]int {
	t, rowOf := db.Items, db.Ratings.Item
	if side == query.ReviewerSide {
		t, rowOf = db.Reviewers, db.Ratings.Reviewer
	}
	a := t.Schema.Index(attr)
	scale := db.Ratings.Dimensions[dim].Scale
	out := make(map[dataset.ValueID][]int)
	for _, r := range records {
		s := db.Ratings.Scores[dim][r]
		if s == 0 {
			continue
		}
		row := int(rowOf[r])
		var vs []dataset.ValueID
		switch t.Schema.At(a).Kind {
		case dataset.Atomic:
			vs = []dataset.ValueID{t.AtomicValue(a, row)}
		case dataset.MultiValued:
			vs = t.MultiValues(a, row)
		}
		for _, v := range vs {
			if v == dataset.MissingValue {
				continue
			}
			if out[v] == nil {
				out[v] = make([]int, scale)
			}
			out[v][s-1]++
		}
	}
	return out
}
