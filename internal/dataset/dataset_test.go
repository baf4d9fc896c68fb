package dataset

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "gender"},
		Attribute{Name: "city"},
		Attribute{Name: "tags", Kind: MultiValued},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	if _, err := NewSchema(Attribute{Name: "a"}, Attribute{Name: "a"}); err == nil {
		t.Fatal("duplicate attribute names must be rejected")
	}
	if _, err := NewSchema(Attribute{Name: ""}); err == nil {
		t.Fatal("empty attribute name must be rejected")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if i := s.Index("city"); i != 1 {
		t.Errorf("Index(city) = %d, want 1", i)
	}
	if s.Index("nope") != -1 || s.Has("nope") {
		t.Error("missing attribute must report -1/false")
	}
	if got := s.Names(); strings.Join(got, ",") != "gender,city,tags" {
		t.Errorf("Names = %v", got)
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("x")
	b := d.Intern("y")
	if a == b {
		t.Fatal("distinct values must get distinct ids")
	}
	if again := d.Intern("x"); again != a {
		t.Fatal("re-interning must return the same id")
	}
	if got := d.Value(a); got != "x" {
		t.Errorf("Value = %q", got)
	}
	if _, ok := d.Lookup("z"); ok {
		t.Error("Lookup of unknown value must fail")
	}
	if d.Value(9999) != MissingLabel {
		t.Error("unknown id must decode as missing")
	}
	if d.Len() != 3 { // missing + x + y
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if vs := d.Values(); len(vs) != 2 || vs[0] != "x" || vs[1] != "y" {
		t.Errorf("Values = %v", vs)
	}
	if ids := d.IDs(); len(ids) != 2 {
		t.Errorf("IDs = %v", ids)
	}
}

func TestEntityTableRoundTrip(t *testing.T) {
	tab := NewEntityTable("reviewers", testSchema(t))
	row, err := tab.AppendRow("u1",
		map[string]string{"gender": "F", "city": "NYC"},
		map[string][]string{"tags": {"b", "a", "a"}}) // dup collapses, order canonical
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 || row != 0 {
		t.Fatalf("unexpected row bookkeeping: len=%d row=%d", tab.Len(), row)
	}
	gi := tab.Schema.Index("gender")
	v, ok := tab.Dict(gi).Lookup("F")
	if !ok || !tab.HasValue(gi, 0, v) {
		t.Error("atomic HasValue failed")
	}
	ti := tab.Schema.Index("tags")
	for _, want := range []string{"a", "b"} {
		id, ok := tab.Dict(ti).Lookup(want)
		if !ok || !tab.HasValue(ti, 0, id) {
			t.Errorf("multi-valued HasValue(%q) failed", want)
		}
	}
	if got := len(tab.MultiValues(ti, 0)); got != 2 {
		t.Errorf("duplicate tag not collapsed: %d values", got)
	}
	// Value ids are in intern order; "b" was seen first.
	if s := tab.ValueString(ti, 0); s != "b;a" {
		t.Errorf("ValueString = %q, want b;a", s)
	}
}

func TestEntityTableMissing(t *testing.T) {
	tab := NewEntityTable("reviewers", testSchema(t))
	if _, err := tab.AppendRow("u1", nil, nil); err != nil {
		t.Fatal(err)
	}
	gi := tab.Schema.Index("gender")
	if tab.AtomicValue(gi, 0) != MissingValue {
		t.Error("absent atomic value must be missing")
	}
	if s := tab.ValueString(gi, 0); s != MissingLabel {
		t.Errorf("missing renders as %q", s)
	}
	ti := tab.Schema.Index("tags")
	if s := tab.ValueString(ti, 0); s != MissingLabel {
		t.Errorf("empty set renders as %q", s)
	}
}

func TestAtomicAttributeRejectsSet(t *testing.T) {
	tab := NewEntityTable("reviewers", testSchema(t))
	_, err := tab.AppendRow("u1", nil, map[string][]string{"gender": {"F", "M"}})
	if err == nil {
		t.Fatal("value set on atomic attribute must be rejected")
	}
}

func TestRatingTableValidation(t *testing.T) {
	if _, err := NewRatingTable(); err == nil {
		t.Fatal("rating table without dimensions must be rejected")
	}
	if _, err := NewRatingTable(Dimension{Name: "x", Scale: 1}); err == nil {
		t.Fatal("scale < 2 must be rejected")
	}
	rt, err := NewRatingTable(Dimension{Name: "overall", Scale: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Append(0, 0, []Score{6}); err == nil {
		t.Fatal("score above scale must be rejected")
	}
	if err := rt.Append(0, 0, []Score{3, 3}); err == nil {
		t.Fatal("wrong score arity must be rejected")
	}
	if err := rt.Append(0, 0, []Score{0}); err != nil { // 0 = missing, allowed
		t.Fatal(err)
	}
}

// buildTinyDB assembles a small consistent database for integration-style
// tests, mirroring the Figure 2 example of the paper.
func buildTinyDB(t *testing.T) *DB {
	t.Helper()
	rs, err := NewSchema(Attribute{Name: "gender"}, Attribute{Name: "age_group"})
	if err != nil {
		t.Fatal(err)
	}
	is, err := NewSchema(Attribute{Name: "cuisine", Kind: MultiValued}, Attribute{Name: "city"})
	if err != nil {
		t.Fatal(err)
	}
	reviewers := NewEntityTable("reviewers", rs)
	items := NewEntityTable("items", is)
	type u struct{ gender, age string }
	for i, v := range []u{{"F", "middle_aged"}, {"M", "young"}, {"F", "young"}, {"M", "middle_aged"}} {
		if _, err := reviewers.AppendRow("u"+string(rune('1'+i)),
			map[string]string{"gender": v.gender, "age_group": v.age}, nil); err != nil {
			t.Fatal(err)
		}
	}
	type it struct {
		cuisines []string
		city     string
	}
	for i, v := range []it{
		{[]string{"burgers", "barbeque"}, "Charlotte"},
		{[]string{"japanese", "sushi"}, "Austin"},
		{[]string{"mexican"}, "Detroit"},
		{[]string{"pizza", "italian"}, "NYC"},
	} {
		if _, err := items.AppendRow("r"+string(rune('1'+i)), map[string]string{"city": v.city},
			map[string][]string{"cuisine": v.cuisines}); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := NewRatingTable(
		Dimension{Name: "overall", Scale: 5}, Dimension{Name: "food", Scale: 5},
		Dimension{Name: "service", Scale: 5}, Dimension{Name: "ambiance", Scale: 5})
	if err != nil {
		t.Fatal(err)
	}
	records := [][3]int{{0, 3, 4}, {1, 0, 4}, {1, 1, 3}, {2, 3, 5}, {3, 2, 2}}
	for _, r := range records {
		if err := rt.Append(r[0], r[1], []Score{Score(r[2]), 3, 4, 4}); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDB("tiny", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkRecordIndex holds one side's record index to the rating table's
// entity column: every record listed exactly once, under its own entity,
// each list ascending and unable to grow into its neighbour.
func checkRecordIndex(t *testing.T, side string, col []int32, entities int, recordsOf func(int) []int32) {
	t.Helper()
	seen := make([]int, len(col))
	for e := 0; e < entities; e++ {
		list := recordsOf(e)
		if cap(list) != len(list) {
			t.Errorf("%s %d: cap %d != len %d, an append would overwrite the next entity's records", side, e, cap(list), len(list))
		}
		for k, r := range list {
			if col[r] != int32(e) {
				t.Errorf("%s %d lists record %d, which belongs to %s %d", side, e, r, side, col[r])
			}
			if k > 0 && list[k-1] >= r {
				t.Errorf("%s %d: records %v not strictly ascending", side, e, list)
			}
			seen[r]++
		}
	}
	for r, n := range seen {
		if n != 1 {
			t.Errorf("record %d appears %d times in the %s index, want once", r, n, side)
		}
	}
}

func TestDBFreezeAndIndexes(t *testing.T) {
	db := buildTinyDB(t)
	if !db.Frozen() {
		t.Fatal("Freeze did not mark database frozen")
	}
	if got := len(db.RecordsOfReviewer(1)); got != 2 {
		t.Errorf("reviewer 1 has %d records, want 2", got)
	}
	if got := len(db.RecordsOfItem(3)); got != 2 {
		t.Errorf("item 3 has %d records, want 2", got)
	}
	checkRecordIndex(t, "reviewer", db.Ratings.Reviewer, db.Reviewers.Len(), db.RecordsOfReviewer)
	checkRecordIndex(t, "item", db.Ratings.Item, db.Items.Len(), db.RecordsOfItem)

	// An append to a returned list must reallocate, not reach reviewer 2's.
	before := slices.Clone(db.RecordsOfReviewer(2))
	_ = append(db.RecordsOfReviewer(1), -1)
	if got := db.RecordsOfReviewer(2); !slices.Equal(got, before) {
		t.Errorf("append to reviewer 1's records changed reviewer 2's: %v, was %v", got, before)
	}

	// Freeze is repeatable: a second one yields the same index.
	byReviewer, byItem := db.byReviewer, db.byItem
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.byReviewer, byReviewer) || !reflect.DeepEqual(db.byItem, byItem) {
		t.Error("a second Freeze built a different record index")
	}
}

func TestDBFreezeRejectsDanglingRefs(t *testing.T) {
	db := buildTinyDB(t)
	db.Ratings.Reviewer = append(db.Ratings.Reviewer, 99)
	db.Ratings.Item = append(db.Ratings.Item, 0)
	for d := range db.Ratings.Scores {
		db.Ratings.Scores[d] = append(db.Ratings.Scores[d], 1)
	}
	if err := db.Freeze(); err == nil {
		t.Fatal("dangling reviewer reference must fail Freeze")
	}

	// On a database never frozen, a reference that dangles on either side
	// leaves neither index behind — not the reviewers' without the items'.
	for _, side := range []string{"reviewer", "item"} {
		frozen := buildTinyDB(t)
		db := NewDB("dangling", frozen.Reviewers, frozen.Items, frozen.Ratings)
		col := db.Ratings.Item
		if side == "reviewer" {
			col = db.Ratings.Reviewer
		}
		col[len(col)-1] = -1
		err := db.Freeze()
		if err == nil || !strings.Contains(err.Error(), "unknown "+side) {
			t.Fatalf("Freeze with a dangling %s reference: error %v", side, err)
		}
		if db.Frozen() {
			t.Errorf("dangling %s: database reports frozen", side)
		}
		if db.byReviewer.records != nil || db.byItem.records != nil {
			t.Errorf("dangling %s: a failed Freeze left an index behind", side)
		}
	}
}

func TestDBStats(t *testing.T) {
	db := buildTinyDB(t)
	s := db.Stats()
	if s.NumAttributes != 4 {
		t.Errorf("NumAttributes = %d, want 4", s.NumAttributes)
	}
	if s.NumDimensions != 4 || s.NumRatings != 5 || s.NumReviewers != 4 || s.NumItems != 4 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.MaxNumValues < 4 { // cities: Charlotte/Austin/Detroit/NYC
		t.Errorf("MaxNumValues = %d, want ≥ 4", s.MaxNumValues)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := buildTinyDB(t)

	var rbuf, ibuf, rabuf bytes.Buffer
	if err := WriteEntityCSV(&rbuf, db.Reviewers); err != nil {
		t.Fatal(err)
	}
	if err := WriteEntityCSV(&ibuf, db.Items); err != nil {
		t.Fatal(err)
	}
	if err := WriteRatingCSV(&rabuf, db); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]Kind{"cuisine": MultiValued}
	r2, err := ReadEntityCSV(&rbuf, "reviewers", kinds)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := ReadEntityCSV(&ibuf, "items", kinds)
	if err != nil {
		t.Fatal(err)
	}
	ra2, err := ReadRatingCSV(&rabuf, r2, i2)
	if err != nil {
		t.Fatal(err)
	}
	db2 := NewDB("tiny2", r2, i2, ra2)
	if err := db2.Freeze(); err != nil {
		t.Fatal(err)
	}

	if db2.Reviewers.Len() != db.Reviewers.Len() || db2.Items.Len() != db.Items.Len() ||
		db2.Ratings.Len() != db.Ratings.Len() {
		t.Fatal("row counts changed across CSV round trip")
	}
	// Spot-check a multi-valued attribute and a score.
	ci := db2.Items.Schema.Index("cuisine")
	if s := db2.Items.ValueString(ci, 0); s != "barbeque;burgers" && s != "burgers;barbeque" {
		t.Errorf("cuisine after round trip = %q", s)
	}
	if db2.Ratings.Scores[0][0] != db.Ratings.Scores[0][0] {
		t.Error("score changed across round trip")
	}
}

// TestMissingLabelInsideSet: a multi-valued cell may list the missing label
// among its values; it is no value, so the stored set must not hold the
// missing id — alone it leaves the set empty, beside real values it is
// dropped like "".
func TestMissingLabelInsideSet(t *testing.T) {
	in := "_key,tags\nu0,a;__missing__\nu1,__missing__;__missing__\nu2,__missing__;b;;a\n"
	tab, err := ReadEntityCSV(strings.NewReader(in), "reviewers", map[string]Kind{"tags": MultiValued})
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range []string{"a", MissingLabel, "a;b"} {
		if got := tab.ValueString(0, row); got != want {
			t.Errorf("row %d: value set %q, want %q", row, got, want)
		}
		for _, id := range tab.MultiValues(0, row) {
			if id == MissingValue {
				t.Errorf("row %d: value set holds the missing id", row)
			}
		}
	}
}

func TestReadEntityCSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no key column":   "name,city\na,b\n",
		"field mismatch":  "_key,city\nu1\n",
		"empty file":      "",
		"unbalanced rows": "_key,city\nu1,NYC,extra\n",
	}
	for name, input := range cases {
		if _, err := ReadEntityCSV(strings.NewReader(input), "t", nil); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadRatingCSVRejectsMalformed(t *testing.T) {
	rs, _ := NewSchema(Attribute{Name: "g"})
	reviewers := NewEntityTable("reviewers", rs)
	reviewers.AppendRow("u1", map[string]string{"g": "x"}, nil)
	items := NewEntityTable("items", rs)
	items.AppendRow("i1", map[string]string{"g": "y"}, nil)

	cases := map[string]string{
		"bad header":       "_reviewer,wrong\nu1,i1\n",
		"no scale":         "_reviewer,_item,overall\nu1,i1,3\n",
		"unknown reviewer": "_reviewer,_item,overall:5\nuX,i1,3\n",
		"unknown item":     "_reviewer,_item,overall:5\nu1,iX,3\n",
		"score overflow":   "_reviewer,_item,overall:5\nu1,i1,9\n",
		"non-numeric":      "_reviewer,_item,overall:5\nu1,i1,abc\n",
	}
	for name, input := range cases {
		if _, err := ReadRatingCSV(strings.NewReader(input), reviewers, items); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSaveLoadDir(t *testing.T) {
	db := buildTinyDB(t)
	dir := t.TempDir()
	if err := SaveDir(db, dir); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDir(dir, "reloaded", map[string]Kind{"cuisine": MultiValued})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Ratings.Len() != db.Ratings.Len() {
		t.Errorf("record count after reload: %d, want %d", db2.Ratings.Len(), db.Ratings.Len())
	}
	if !db2.Frozen() {
		t.Error("LoadDir must return a frozen database")
	}
}

func TestAttributeProfile(t *testing.T) {
	db := buildTinyDB(t)
	gi := db.Reviewers.Schema.Index("gender")
	p := db.Reviewers.Profile(gi, 0)
	if p.Name != "gender" || p.Rows != 4 || p.Missing != 0 {
		t.Fatalf("profile header wrong: %+v", p)
	}
	if p.Cardinality != 2 {
		t.Fatalf("cardinality = %d, want 2", p.Cardinality)
	}
	// 2×F, 2×M: entropy exactly 1 bit.
	if p.Entropy < 0.999 || p.Entropy > 1.001 {
		t.Fatalf("entropy = %v, want 1", p.Entropy)
	}
	if len(p.Top) != 2 || p.Top[0].Count != 2 {
		t.Fatalf("top values wrong: %v", p.Top)
	}
	// Multi-valued attribute counts per value; topN truncates.
	ci := db.Items.Schema.Index("cuisine")
	pc := db.Items.Profile(ci, 3)
	if pc.Kind != MultiValued || len(pc.Top) != 3 {
		t.Fatalf("cuisine profile: %+v", pc)
	}
	if pc.Cardinality < 7 { // 7 distinct cuisines in the fixture
		t.Fatalf("cuisine cardinality = %d", pc.Cardinality)
	}
	// Profiles covers the schema.
	if got := len(db.Items.Profiles(1)); got != db.Items.Schema.Len() {
		t.Fatalf("Profiles len = %d", got)
	}
}

func TestAttributeProfileMissing(t *testing.T) {
	tab := NewEntityTable("r", testSchema(t))
	tab.AppendRow("u1", map[string]string{"gender": "F"}, nil)
	tab.AppendRow("u2", nil, nil)
	p := tab.Profile(tab.Schema.Index("gender"), 0)
	if p.Missing != 1 || p.Cardinality != 1 {
		t.Fatalf("missing handling wrong: %+v", p)
	}
	// Single-valued attribute: zero entropy.
	if p.Entropy != 0 {
		t.Fatalf("entropy = %v, want 0", p.Entropy)
	}
}

// TestReadEntityCSVDoesNotPinLines: encoding/csv returns a record's fields
// as substrings of one string per line, so a key (or a dictionary value)
// stored as is keeps the whole line reachable. Every row here carries the
// same 4 KB cell; the loaded table must retain one copy of it, not one per
// row.
func TestReadEntityCSVDoesNotPinLines(t *testing.T) {
	const rows, cell = 2_000, 4 << 10
	var b strings.Builder
	b.WriteString("_key,pad,tags\n")
	pad := strings.Repeat("x", cell)
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&b, "u%d,%s,a;b\n", r, pad)
	}
	input := b.String()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	tbl, err := ReadEntityCSV(strings.NewReader(input), "reviewers", map[string]Kind{"tags": MultiValued})
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(input)
	if tbl.Len() != rows || tbl.Keys[rows-1] != fmt.Sprintf("u%d", rows-1) || tbl.ValueCardinality(0) != 1 {
		t.Fatalf("loaded %d rows, last key %q, %d pad values", tbl.Len(), tbl.Keys[tbl.Len()-1], tbl.ValueCardinality(0))
	}
	if grown := int64(after) - int64(before); grown > rows*cell/10 {
		t.Errorf("loading %d rows with a %d-byte cell retains %d bytes: the table pins its CSV lines", rows, cell, grown)
	}
}
