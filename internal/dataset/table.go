package dataset

import (
	"fmt"
	"slices"
	"sort"
)

// EntityTable stores the objective attributes of reviewers or items in
// columnar, dictionary-encoded form. Row i describes the entity with dense
// id i; the application-level identifier (e.g. "user 42") is kept in Keys.
type EntityTable struct {
	Name   string
	Schema *Schema
	Keys   []string // external identifier per row

	dicts []*Dictionary // one per attribute
	// atomic[a][row] is the single value id of attribute a for row, or
	// MissingValue. Only populated for atomic attributes.
	atomic [][]ValueID
	// multi[a][row] is the sorted set of value ids of attribute a for row.
	// Only populated for multi-valued attributes.
	multi [][][]ValueID
	// cols are the flat scan-kernel projections, built by DB.Freeze
	// (see columnar.go); nil until then.
	cols []AttrColumn
}

// NewEntityTable creates an empty table with the given schema.
func NewEntityTable(name string, schema *Schema) *EntityTable {
	t := &EntityTable{Name: name, Schema: schema}
	n := schema.Len()
	t.dicts = make([]*Dictionary, n)
	t.atomic = make([][]ValueID, n)
	t.multi = make([][][]ValueID, n)
	for i := 0; i < n; i++ {
		t.dicts[i] = NewDictionary()
	}
	return t
}

// Len returns the number of rows (entities).
func (t *EntityTable) Len() int { return len(t.Keys) }

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
// It returns the dense row id.
func (t *EntityTable) AppendRow(key string, values map[string]string, setValues map[string][]string) (int, error) {
	row := len(t.Keys)
	t.Keys = append(t.Keys, key)
	for a := 0; a < t.Schema.Len(); a++ {
		attr := t.Schema.At(a)
		switch attr.Kind {
		case Atomic:
			v, ok := values[attr.Name]
			if !ok || v == "" {
				t.atomic[a] = append(t.atomic[a], MissingValue)
			} else {
				t.atomic[a] = append(t.atomic[a], t.dicts[a].Intern(v))
			}
			if sv, bad := setValues[attr.Name]; bad && len(sv) > 0 {
				return 0, fmt.Errorf("dataset: atomic attribute %q given a value set", attr.Name)
			}
		case MultiValued:
			vs := setValues[attr.Name]
			if single, ok := values[attr.Name]; ok && single != "" {
				vs = append(vs, single)
			}
			ids := make([]ValueID, 0, len(vs))
			seen := make(map[ValueID]bool, len(vs))
			for _, v := range vs {
				if v == "" || v == MissingLabel {
					continue
				}
				id := t.dicts[a].Intern(v)
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			t.multi[a] = append(t.multi[a], ids)
		}
	}
	return row, nil
}

// AtomicValue returns the value id of atomic attribute a for the given row.
func (t *EntityTable) AtomicValue(a, row int) ValueID { return t.atomic[a][row] }

// MultiValues returns the value-id set of multi-valued attribute a for row.
func (t *EntityTable) MultiValues(a, row int) []ValueID { return t.multi[a][row] }

// HasValue reports whether the row has the given value for attribute a,
// handling both attribute kinds.
func (t *EntityTable) HasValue(a, row int, v ValueID) bool {
	switch t.Schema.At(a).Kind {
	case Atomic:
		return t.atomic[a][row] == v
	case MultiValued:
		ids := t.multi[a][row]
		i := sort.Search(len(ids), func(i int) bool { return ids[i] >= v })
		return i < len(ids) && ids[i] == v
	}
	return false
}

// ValueString renders the row's value(s) of attribute a for display.
func (t *EntityTable) ValueString(a, row int) string {
	attr := t.Schema.At(a)
	switch attr.Kind {
	case Atomic:
		return t.dicts[a].Value(t.atomic[a][row])
	case MultiValued:
		ids := t.multi[a][row]
		if len(ids) == 0 {
			return MissingLabel
		}
		s := ""
		for i, id := range ids {
			if i > 0 {
				s += ";"
			}
			s += t.dicts[a].Value(id)
		}
		return s
	}
	return ""
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
	for i, d := range dims {
		if d.Scale < 2 {
			return nil, fmt.Errorf("dataset: dimension %q has scale %d < 2", d.Name, d.Scale)
		}
		rt.Scores[i] = nil
		_ = i
	}
	return rt, nil
}

// Len returns the number of rating records.
func (rt *RatingTable) Len() int { return len(rt.Reviewer) }

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
	if err := db.Reviewers.buildColumnar(); err != nil {
		return err
	}
	if err := db.Items.buildColumnar(); err != nil {
		return err
	}
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
