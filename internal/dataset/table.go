package dataset

import (
	"bytes"
	"fmt"
	"math"
	"slices"
)

// EntityTable stores the objective attributes of reviewers or items in
// columnar, dictionary-encoded form. Row i describes the entity with dense
// id i; its application-level identifier (e.g. "user 42") is Key(i).
type EntityTable struct {
	Name   string
	Schema *Schema

	// keys holds every row's identifier back to back: row r's ends at
	// keyEnds[r] and starts where row r-1's ends (row 0's at 0).
	keys    []byte
	keyEnds []int32
	dicts   []*Dictionary // one per attribute
	// cols holds every attribute's values, appended row by row (see
	// columnar.go); Freeze exposes them through Column.
	cols   []AttrColumn
	frozen bool
}

// NewEntityTable creates an empty table with the given schema.
func NewEntityTable(name string, schema *Schema) *EntityTable {
	t := &EntityTable{Name: name, Schema: schema}
	n := schema.Len()
	t.dicts = make([]*Dictionary, n)
	t.cols = make([]AttrColumn, n)
	for a := 0; a < n; a++ {
		t.dicts[a] = NewDictionary()
		t.cols[a].Kind = schema.At(a).Kind
		if t.cols[a].Kind == MultiValued {
			t.cols[a].Offsets = []int32{0}
		}
	}
	return t
}

// Len returns the number of rows (entities).
func (t *EntityTable) Len() int { return len(t.keyEnds) }

// Key returns the external identifier of row.
func (t *EntityTable) Key(row int) string {
	lo := int32(0)
	if row > 0 {
		lo = t.keyEnds[row-1]
	}
	return string(t.keys[lo:t.keyEnds[row]])
}

// Dict returns the dictionary of attribute index a.
func (t *EntityTable) Dict(a int) *Dictionary { return t.dicts[a] }

// DictByName returns the dictionary of the named attribute, or nil.
func (t *EntityTable) DictByName(name string) *Dictionary {
	i := t.Schema.Index(name)
	if i < 0 {
		return nil
	}
	return t.dicts[i]
}

// AppendRow adds an entity. values maps attribute name → string value for
// atomic attributes; setValues maps attribute name → value set for
// multi-valued attributes. Missing entries are stored as missing; a value
// set never holds the missing id (MissingLabel and "" are dropped from it).
// It returns the dense row id. A table that returned an error holds part of
// the row and must not be used.
func (t *EntityTable) AppendRow(key string, values map[string]string, setValues map[string][]string) (int, error) {
	if t.frozen {
		return 0, fmt.Errorf("dataset: %s is frozen", t.Name)
	}
	row := t.Len()
	if err := t.appendKey(key); err != nil {
		return 0, fmt.Errorf("dataset: %s: %w", t.Name, err)
	}
	for a := 0; a < t.Schema.Len(); a++ {
		attr := t.Schema.At(a)
		if attr.Kind == Atomic && len(setValues[attr.Name]) > 0 {
			return 0, fmt.Errorf("dataset: atomic attribute %q given a value set", attr.Name)
		}
		if err := t.appendCell(a, values[attr.Name], setValues[attr.Name]); err != nil {
			return 0, fmt.Errorf("dataset: %s: %w", t.Name, err)
		}
	}
	return row, nil
}

// appendKey appends the next row's identifier to the key blob.
func (t *EntityTable) appendKey(key string) error {
	if len(t.keys)+len(key) > math.MaxInt32 {
		return fmt.Errorf("keys longer than %d bytes in all", math.MaxInt32)
	}
	t.keys = append(t.keys, key...)
	t.keyEnds = append(t.keyEnds, int32(len(t.keys)))
	return nil
}

// appendCell appends one row's value of attribute a, AppendRow's step. An
// atomic attribute interns v ("" is missing). A multi-valued one takes the
// set vs, plus v unless it is "", and drops "" and MissingLabel.
func (t *EntityTable) appendCell(a int, v string, vs []string) error {
	c, d := &t.cols[a], t.dicts[a]
	if c.Kind == Atomic {
		id, err := MissingValue, error(nil)
		if v != "" {
			id, err = d.Intern(v)
		}
		c.Values = append(c.Values, id)
		return t.attrErr(a, err)
	}
	if v != "" {
		vs = append(vs[:len(vs):len(vs)], v)
	}
	start := len(c.Values)
	for _, s := range vs {
		if s != "" && s != MissingLabel {
			id, err := d.Intern(s)
			if err != nil {
				return t.attrErr(a, err)
			}
			c.Values = append(c.Values, id)
		}
	}
	return t.endSet(a, start)
}

// appendCSVCell is appendCell for a CSV cell: an atomic attribute takes it
// as v, a multi-valued one as the set of its ';'-separated parts. cell is
// the reader's, so only a value new to the dictionary is copied.
func (t *EntityTable) appendCSVCell(a int, cell []byte) error {
	c, d := &t.cols[a], t.dicts[a]
	if c.Kind == Atomic {
		id, err := MissingValue, error(nil)
		if len(cell) > 0 {
			id, err = d.internBytes(cell)
		}
		c.Values = append(c.Values, id)
		return t.attrErr(a, err)
	}
	start := len(c.Values)
	for more := true; more; {
		var v []byte
		v, cell, more = bytes.Cut(cell, []byte{';'})
		if len(v) > 0 && string(v) != MissingLabel {
			id, err := d.internBytes(v)
			if err != nil {
				return t.attrErr(a, err)
			}
			c.Values = append(c.Values, id)
		}
	}
	return t.endSet(a, start)
}

// endSet ends one row's value set of multi-valued attribute a, whose ids
// appendCell or appendCSVCell appended to the column from start on: it
// sorts and dedupes them in place and closes the row's CSR run.
func (t *EntityTable) endSet(a, start int) error {
	c := &t.cols[a]
	set := c.Values[start:]
	slices.Sort(set)
	c.Values = c.Values[:start+len(slices.Compact(set))]
	if len(c.Values) > math.MaxInt32 {
		return t.attrErr(a, fmt.Errorf("more than %d values in all, too many for int32 CSR offsets", math.MaxInt32))
	}
	c.Offsets = append(c.Offsets, int32(len(c.Values)))
	return nil
}

// attrErr names attribute a in err, if there is one.
func (t *EntityTable) attrErr(a int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("attribute %q: %w", t.Schema.At(a).Name, err)
}

// reserve sizes the key ends and every column's per-row array for n more
// rows.
func (t *EntityTable) reserve(n int) {
	t.keyEnds = slices.Grow(t.keyEnds, n)
	for a := range t.cols {
		if c := &t.cols[a]; c.Kind == Atomic {
			c.Values = slices.Grow(c.Values, n)
		} else {
			c.Offsets = slices.Grow(c.Offsets, n)
		}
	}
}

// cell returns row's value ids of attribute a: a multi-valued set, sorted,
// or an atomic value as a one-id slice (MissingValue included). The slice
// is the column's, with its capacity clipped: read-only.
func (t *EntityTable) cell(a, row int) []ValueID {
	c := &t.cols[a]
	if c.Kind == Atomic {
		return c.Values[row : row+1 : row+1]
	}
	lo, hi := c.Offsets[row], c.Offsets[row+1]
	return c.Values[lo:hi:hi]
}

// AtomicValue returns the value id of atomic attribute a for the given row.
func (t *EntityTable) AtomicValue(a, row int) ValueID { return t.cols[a].Values[row] }

// MultiValues returns the value-id set of multi-valued attribute a for row,
// sorted. The slice is the column's: read-only.
func (t *EntityTable) MultiValues(a, row int) []ValueID { return t.cell(a, row) }

// HasValue reports whether the row has the given value for attribute a,
// handling both attribute kinds.
func (t *EntityTable) HasValue(a, row int, v ValueID) bool {
	_, ok := slices.BinarySearch(t.cell(a, row), v)
	return ok
}

// ValueString renders the row's value(s) of attribute a for display: an
// empty set or a missing value as MissingLabel.
func (t *EntityTable) ValueString(a, row int) string {
	ids := t.cell(a, row)
	if len(ids) == 0 {
		return MissingLabel
	}
	s := t.dicts[a].Value(ids[0])
	for _, id := range ids[1:] {
		s += ";" + t.dicts[a].Value(id)
	}
	return s
}

// ValueCardinality returns the number of distinct non-missing values of the
// attribute at index a.
func (t *EntityTable) ValueCardinality(a int) int { return t.dicts[a].Len() - 1 }

// MaxValueCardinality returns the largest value cardinality over all
// attributes (the "Max # of vals" column of Table 2).
func (t *EntityTable) MaxValueCardinality() int {
	maxCard := 0
	for a := 0; a < t.Schema.Len(); a++ {
		if c := t.ValueCardinality(a); c > maxCard {
			maxCard = c
		}
	}
	return maxCard
}

// Dimension names a subjective rating dimension, e.g. "overall" or "food".
type Dimension struct {
	Name string
	// Scale is the number of rating levels m; scores are integers in {1..m}.
	Scale int
}

// Score is one integer rating score in {1..Scale}; 0 denotes missing.
type Score uint8

// RatingTable stores the rating records ⟨u, i, s₁..s_t⟩ in columnar form:
// parallel slices of reviewer row ids, item row ids, and one score column per
// rating dimension.
type RatingTable struct {
	Dimensions []Dimension
	Reviewer   []int32 // dense reviewer row id per record
	Item       []int32 // dense item row id per record
	Scores     [][]Score
}

// NewRatingTable creates an empty rating table over the given dimensions.
func NewRatingTable(dims ...Dimension) (*RatingTable, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("dataset: rating table needs at least one dimension")
	}
	rt := &RatingTable{Dimensions: append([]Dimension(nil), dims...)}
	rt.Scores = make([][]Score, len(dims))
	for _, d := range dims {
		if d.Scale < 2 || d.Scale > math.MaxUint8 {
			return nil, fmt.Errorf("dataset: dimension %q has scale %d outside 2..%d", d.Name, d.Scale, math.MaxUint8)
		}
	}
	return rt, nil
}

// Len returns the number of rating records.
func (rt *RatingTable) Len() int { return len(rt.Reviewer) }

// reserve sizes every column for n more records.
func (rt *RatingTable) reserve(n int) {
	rt.Reviewer = slices.Grow(rt.Reviewer, n)
	rt.Item = slices.Grow(rt.Item, n)
	for d := range rt.Scores {
		rt.Scores[d] = slices.Grow(rt.Scores[d], n)
	}
}

// Append adds one rating record. scores must have one entry per dimension;
// each must be in {0..scale} where 0 means missing.
func (rt *RatingTable) Append(reviewer, item int, scores []Score) error {
	if len(scores) != len(rt.Dimensions) {
		return fmt.Errorf("dataset: got %d scores, want %d", len(scores), len(rt.Dimensions))
	}
	for d, s := range scores {
		if int(s) > rt.Dimensions[d].Scale {
			return fmt.Errorf("dataset: score %d out of scale 1..%d for dimension %q",
				s, rt.Dimensions[d].Scale, rt.Dimensions[d].Name)
		}
	}
	rt.Reviewer = append(rt.Reviewer, int32(reviewer))
	rt.Item = append(rt.Item, int32(item))
	for d, s := range scores {
		rt.Scores[d] = append(rt.Scores[d], s)
	}
	return nil
}

// recordIndex lists the rating-record positions of every entity of one side
// in CSR form: entity e's records are records[offsets[e]:offsets[e+1]],
// ascending — one backing array for the whole side instead of one grown
// slice per entity.
type recordIndex struct {
	offsets []int32 // len entities+1
	records []int32 // len ratings
}

// buildRecordIndex indexes the rating table by one of its entity columns
// (count, prefix-sum, fill), rejecting a reference outside {0..entities-1}.
// side names the column in that error.
func buildRecordIndex(col []int32, entities int, side string) (recordIndex, error) {
	offsets := make([]int32, entities+1)
	for r, e := range col {
		if e < 0 || int(e) >= entities {
			return recordIndex{}, fmt.Errorf("dataset: record %d references unknown %s %d", r, side, e)
		}
		offsets[e+1]++
	}
	for e := 0; e < entities; e++ {
		offsets[e+1] += offsets[e]
	}
	records := make([]int32, len(col))
	next := slices.Clone(offsets[:entities])
	for r, e := range col {
		records[next[e]] = int32(r)
		next[e]++
	}
	return recordIndex{offsets: offsets, records: records}, nil
}

// of returns entity e's records. The slice aliases the index with its
// capacity clipped, so appending to it cannot reach the next entity's list;
// its elements must not be written.
func (x *recordIndex) of(e int) []int32 {
	lo, hi := x.offsets[e], x.offsets[e+1]
	return x.records[lo:hi:hi]
}

// DB is the subjective database triple ⟨I, U, R⟩ of the paper with an index
// from entities to their rating records.
type DB struct {
	Name      string
	Reviewers *EntityTable
	Items     *EntityTable
	Ratings   *RatingTable

	// byReviewer and byItem list the rating-record positions of each
	// entity; Freeze builds them, both or neither.
	byReviewer recordIndex
	byItem     recordIndex
	frozen     bool
}

// NewDB assembles a database from its three tables. Call Freeze after
// loading all records.
func NewDB(name string, reviewers, items *EntityTable, ratings *RatingTable) *DB {
	return &DB{Name: name, Reviewers: reviewers, Items: items, Ratings: ratings}
}

// Freeze validates record references and builds the per-entity record
// indexes. It must be called once after loading and before exploration. A
// failed Freeze installs neither index.
func (db *DB) Freeze() error {
	byReviewer, err := buildRecordIndex(db.Ratings.Reviewer, db.Reviewers.Len(), "reviewer")
	if err != nil {
		return err
	}
	byItem, err := buildRecordIndex(db.Ratings.Item, db.Items.Len(), "item")
	if err != nil {
		return err
	}
	db.Reviewers.freeze()
	db.Items.freeze()
	db.byReviewer, db.byItem = byReviewer, byItem
	db.frozen = true
	return nil
}

// Frozen reports whether Freeze has completed.
func (db *DB) Frozen() bool { return db.frozen }

// RecordsOfReviewer returns the rating-record positions of reviewer row u,
// ascending. The slice is shared with the index: read-only.
func (db *DB) RecordsOfReviewer(u int) []int32 { return db.byReviewer.of(u) }

// RecordsOfItem returns the rating-record positions of item row i,
// ascending. The slice is shared with the index: read-only.
func (db *DB) RecordsOfItem(i int) []int32 { return db.byItem.of(i) }

// Stats summarizes the database as in the paper's Table 2.
type Stats struct {
	Name          string
	NumAttributes int
	MaxNumValues  int
	NumDimensions int
	NumRatings    int
	NumReviewers  int
	NumItems      int
}

// Stats computes the Table 2 row for this database. The attribute count is
// the total over both entity tables, as in the paper.
func (db *DB) Stats() Stats {
	maxVals := db.Reviewers.MaxValueCardinality()
	if v := db.Items.MaxValueCardinality(); v > maxVals {
		maxVals = v
	}
	return Stats{
		Name:          db.Name,
		NumAttributes: db.Reviewers.Schema.Len() + db.Items.Schema.Len(),
		MaxNumValues:  maxVals,
		NumDimensions: len(db.Ratings.Dimensions),
		NumRatings:    db.Ratings.Len(),
		NumReviewers:  db.Reviewers.Len(),
		NumItems:      db.Items.Len(),
	}
}
