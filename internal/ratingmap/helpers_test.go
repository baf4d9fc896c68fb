package ratingmap

import "subdex/internal/dataset"

// NumRecords reports how many scored records the candidate has accumulated,
// with multiplicity for multi-valued attributes (0 for unknown candidates).
func (a *Accumulator) NumRecords(k Key) int {
	total := 0
	if i := a.index(k); i >= 0 {
		a.parts[i].rows(func(_ dataset.ValueID, _ []int32, n int) { total += n })
	}
	return total
}

// RecordVisits reports how many (record, attribute) lookups the shared
// scans performed so far — the work the sharing optimization bounds.
func (a *Accumulator) RecordVisits() int { return a.recordVisits }

// Snapshot materializes the current partial state of one candidate as a
// RatingMap, or nil for an unknown candidate.
func (a *Accumulator) Snapshot(k Key) *RatingMap {
	if i := a.index(k); i >= 0 {
		return a.SnapshotAt(i)
	}
	return nil
}

// NumSubgroups returns the number of bars.
func (rm *RatingMap) NumSubgroups() int { return len(rm.Subgroups) }
