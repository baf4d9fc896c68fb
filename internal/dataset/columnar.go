package dataset

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
// The columns are the table's only storage of its values: AppendRow and
// the CSV reader append every cell straight into them, a multi-valued set
// sorted and deduped. DB.Freeze hands them out, and they are immutable
// afterwards (the frozen table is the only state the rest of the system
// ever scans).
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

// freeze fixes each column's NValues at its dictionary's size and lets
// Column hand the columns out. Called by DB.Freeze; the table takes no
// more rows after it.
func (t *EntityTable) freeze() {
	for a := range t.cols {
		t.cols[a].NValues = t.dicts[a].Len()
	}
	t.frozen = true
}

// Column returns the flat projection of attribute index a, or nil when the
// table has not been frozen into a DB yet (callers fall back to the
// row-oriented accessors).
func (t *EntityTable) Column(a int) *AttrColumn {
	if !t.frozen || a < 0 || a >= len(t.cols) {
		return nil
	}
	return &t.cols[a]
}
