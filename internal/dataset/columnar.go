package dataset

import "fmt"

// AttrColumn is the flat, scan-ready projection of one attribute column,
// the substrate of the ratingmap fused scan kernel. It removes every
// per-record pointer chase the row-oriented accessors pay:
//
//   - Atomic attributes expose the dictionary-coded value column directly:
//     Values[row] is the row's value id (MissingValue for absent values),
//     one flat array indexing per record.
//   - Multi-valued attributes are flattened into CSR form: the ids of row r
//     are Values[Offsets[r]:Offsets[r+1]], a contiguous run in one shared
//     backing array instead of a [][]ValueID slice-of-slices.
//
// Columns are built once by DB.Freeze and are immutable afterwards; they
// alias the table's dictionary-encoded storage, so they are snapshots of
// the table as frozen (the only state the rest of the system ever scans).
type AttrColumn struct {
	Kind Kind
	// NValues is the dictionary size including the reserved missing id 0:
	// every id in Values is < NValues, so a dense [NValues × (scale+1)]
	// counter block indexed by value id and score — what a ratingmap
	// accumulator sizes from the same dictionary — can never be written
	// out of bounds.
	NValues int
	// Values holds the dictionary-coded ids: per row for atomic columns,
	// CSR-flattened for multi-valued ones.
	Values []ValueID
	// Offsets is the CSR row index for multi-valued columns (len rows+1);
	// nil for atomic columns.
	Offsets []int32
}

// buildColumnar materializes the flat projection of every attribute.
// Called by DB.Freeze; not safe to call concurrently with scans.
func (t *EntityTable) buildColumnar() error {
	t.cols = make([]AttrColumn, t.Schema.Len())
	for a := 0; a < t.Schema.Len(); a++ {
		attr := t.Schema.At(a)
		col := AttrColumn{Kind: attr.Kind, NValues: t.dicts[a].Len()}
		switch attr.Kind {
		case Atomic:
			col.Values = t.atomic[a] // alias: already flat and dictionary-coded
		case MultiValued:
			rows := t.multi[a]
			total := 0
			for _, ids := range rows {
				total += len(ids)
			}
			if total > 1<<31-2 {
				return fmt.Errorf("dataset: attribute %q has %d values, too many for int32 CSR offsets", attr.Name, total)
			}
			col.Offsets = make([]int32, len(rows)+1)
			col.Values = make([]ValueID, 0, total)
			for r, ids := range rows {
				col.Values = append(col.Values, ids...)
				col.Offsets[r+1] = int32(len(col.Values))
			}
		}
		t.cols[a] = col
	}
	return nil
}

// Column returns the flat projection of attribute index a, or nil when the
// table has not been frozen into a DB yet (callers fall back to the
// row-oriented accessors).
func (t *EntityTable) Column(a int) *AttrColumn {
	if t.cols == nil || a < 0 || a >= len(t.cols) {
		return nil
	}
	return &t.cols[a]
}
