package dataset

import (
	"testing"
)

// buildColumnarDB assembles a tiny frozen DB with one atomic and one
// multi-valued attribute per side, including missing values and empty sets.
func buildColumnarDB(t *testing.T) *DB {
	t.Helper()
	rs := MustSchema(
		Attribute{Name: "g", Kind: Atomic},
		Attribute{Name: "tags", Kind: MultiValued},
	)
	is := MustSchema(Attribute{Name: "city", Kind: Atomic})
	reviewers := NewEntityTable("reviewers", rs)
	items := NewEntityTable("items", is)

	rows := []struct {
		g    string
		tags []string
	}{
		{"a", []string{"x", "y"}},
		{"", nil}, // missing atomic, empty set
		{"b", []string{"y"}},
		{"a", []string{"z", "x", "y"}},
	}
	for i, r := range rows {
		if _, err := reviewers.AppendRow("u", map[string]string{"g": r.g},
			map[string][]string{"tags": r.tags}); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	for _, c := range []string{"nyc", "", "sf"} {
		if _, err := items.AppendRow("i", map[string]string{"city": c}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := NewRatingTable(Dimension{Name: "overall", Scale: 5})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		if err := rt.Append(r%4, r%3, []Score{Score(r % 6)}); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDB("columnar", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestColumnarNilBeforeFreeze: the columns hold every appended row, but
// Column hands them out only after Freeze, so callers can detect and fall
// back to row-oriented access; a frozen table takes no more rows.
func TestColumnarNilBeforeFreeze(t *testing.T) {
	tbl := NewEntityTable("x", MustSchema(Attribute{Name: "a", Kind: Atomic}))
	if _, err := tbl.AppendRow("k", map[string]string{"a": "v"}, nil); err != nil {
		t.Fatal(err)
	}
	if col := tbl.Column(0); col != nil {
		t.Fatalf("Column before Freeze = %+v, want nil", col)
	}
	if col := tbl.Column(-1); col != nil {
		t.Fatal("Column(-1) must be nil")
	}
	db := NewDB("x", tbl, NewEntityTable("y", MustSchema(Attribute{Name: "b"})), &RatingTable{})
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	if col := tbl.Column(0); col == nil || col.NValues != 2 || len(col.Values) != 1 {
		t.Fatalf("Column after Freeze = %+v, want one row of 2 ids", col)
	}
	if _, err := tbl.AppendRow("k2", nil, nil); err == nil {
		t.Fatal("a frozen table took a row")
	}
}

// TestColumnarAtomicAliasesStorage: atomic columns are the dictionary-coded
// storage itself — every row's id must match AtomicValue, including missing.
func TestColumnarAtomicAliasesStorage(t *testing.T) {
	db := buildColumnarDB(t)
	for _, tbl := range []*EntityTable{db.Reviewers, db.Items} {
		for a := 0; a < tbl.Schema.Len(); a++ {
			if tbl.Schema.At(a).Kind != Atomic {
				continue
			}
			col := tbl.Column(a)
			if col == nil || col.Kind != Atomic {
				t.Fatalf("%s attr %d: missing atomic column", tbl.Name, a)
			}
			if col.Offsets != nil {
				t.Fatalf("%s attr %d: atomic column has CSR offsets", tbl.Name, a)
			}
			if len(col.Values) != tbl.Len() {
				t.Fatalf("%s attr %d: %d values for %d rows", tbl.Name, a, len(col.Values), tbl.Len())
			}
			for row := 0; row < tbl.Len(); row++ {
				if col.Values[row] != tbl.AtomicValue(a, row) {
					t.Fatalf("%s attr %d row %d: column %d, AtomicValue %d",
						tbl.Name, a, row, col.Values[row], tbl.AtomicValue(a, row))
				}
			}
			if col.NValues != tbl.Dict(a).Len() {
				t.Fatalf("%s attr %d: NValues %d, dict %d", tbl.Name, a, col.NValues, tbl.Dict(a).Len())
			}
		}
	}
}

// TestColumnarCSRRoundTrip: the CSR run of each row must equal MultiValues
// exactly (same ids, same sorted order), with empty rows as empty runs.
func TestColumnarCSRRoundTrip(t *testing.T) {
	db := buildColumnarDB(t)
	tbl := db.Reviewers
	a := tbl.Schema.Index("tags")
	col := tbl.Column(a)
	if col == nil || col.Kind != MultiValued {
		t.Fatal("missing multi-valued column")
	}
	if len(col.Offsets) != tbl.Len()+1 {
		t.Fatalf("offsets len %d, want %d", len(col.Offsets), tbl.Len()+1)
	}
	if col.Offsets[0] != 0 {
		t.Fatalf("offsets[0] = %d, want 0", col.Offsets[0])
	}
	for row := 0; row < tbl.Len(); row++ {
		lo, hi := col.Offsets[row], col.Offsets[row+1]
		if lo > hi || int(hi) > len(col.Values) {
			t.Fatalf("row %d: bad CSR run [%d,%d) over %d values", row, lo, hi, len(col.Values))
		}
		run := col.Values[lo:hi]
		want := tbl.MultiValues(a, row)
		if len(run) != len(want) {
			t.Fatalf("row %d: run len %d, MultiValues len %d", row, len(run), len(want))
		}
		for i := range run {
			if run[i] != want[i] {
				t.Fatalf("row %d pos %d: %d vs %d", row, i, run[i], want[i])
			}
			if int(run[i]) >= col.NValues {
				t.Fatalf("row %d: id %d out of NValues %d", row, run[i], col.NValues)
			}
		}
	}
	if int(col.Offsets[tbl.Len()]) != len(col.Values) {
		t.Fatalf("final offset %d, want %d", col.Offsets[tbl.Len()], len(col.Values))
	}
}
