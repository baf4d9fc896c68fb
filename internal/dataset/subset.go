package dataset

import (
	"fmt"
	"math/rand"
)

// Subsetting transforms for the scalability study (Figure 10): sampling
// reviewers (database size), dropping attributes (number of GroupBys), and
// dropping attribute values (number of next-step operations). Each returns
// a new frozen database; the source is unmodified.

// SampleReviewers keeps a random fraction of reviewers and exactly their
// rating records, as in Figure 10(a).
func SampleReviewers(db *DB, fraction float64, seed int64) (*DB, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("dataset: fraction %v out of (0,1]", fraction)
	}
	rng := rand.New(rand.NewSource(seed))
	keep := make([]bool, db.Reviewers.Len())
	kept := 0
	for i := range keep {
		if rng.Float64() < fraction {
			keep[i] = true
			kept++
		}
	}
	if kept == 0 && db.Reviewers.Len() > 0 {
		keep[0] = true
	}

	newU, oldToNewU, err := copyEntities(db.Reviewers, keep)
	if err != nil {
		return nil, err
	}
	allItems := make([]bool, db.Items.Len())
	for i := range allItems {
		allItems[i] = true
	}
	newI, _, err := copyEntities(db.Items, allItems)
	if err != nil {
		return nil, err
	}
	return rebuildWithEntities(db, newU, newI, oldToNewU, db.Name+"-sampled")
}

// copyEntities clones the kept rows of a table.
func copyEntities(t *EntityTable, keep []bool) (*EntityTable, map[int]int, error) {
	nt := NewEntityTable(t.Name, t.Schema)
	oldToNew := make(map[int]int)
	for row := 0; row < t.Len(); row++ {
		if !keep[row] {
			continue
		}
		values, setValues := rowCells(t, row, nil)
		nr, err := nt.AppendRow(t.Key(row), values, setValues)
		if err != nil {
			return nil, nil, err
		}
		oldToNew[row] = nr
	}
	return nt, oldToNew, nil
}

// rowCells returns row's cells in AppendRow's form, keyed by attribute
// name, leaving out attribute a's value s when keep is set and
// keep(a, s) is false.
func rowCells(t *EntityTable, row int, keep func(a int, s string) bool) (map[string]string, map[string][]string) {
	values, setValues := map[string]string{}, map[string][]string{}
	for a := 0; a < t.Schema.Len(); a++ {
		attr := t.Schema.At(a)
		for _, v := range t.cell(a, row) {
			s := t.Dict(a).Value(v)
			if v == MissingValue || keep != nil && !keep(a, s) {
				continue
			}
			if attr.Kind == Atomic {
				values[attr.Name] = s
			} else {
				setValues[attr.Name] = append(setValues[attr.Name], s)
			}
		}
	}
	return values, setValues
}

// KeepAttributes retains a random subset of attributes across the two
// entity tables, totalling keepTotal, as in Figure 10(b). At least one
// attribute per table is always kept.
func KeepAttributes(db *DB, keepTotal int, seed int64) (*DB, error) {
	totalAttrs := db.Reviewers.Schema.Len() + db.Items.Schema.Len()
	if keepTotal < 2 {
		keepTotal = 2
	}
	if keepTotal > totalAttrs {
		keepTotal = totalAttrs
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(totalAttrs)
	keep := make([]bool, totalAttrs)
	// Force one attribute per table, then fill the rest randomly.
	keep[rng.Intn(db.Reviewers.Schema.Len())] = true
	keep[db.Reviewers.Schema.Len()+rng.Intn(db.Items.Schema.Len())] = true
	count := 2
	for _, i := range order {
		if count >= keepTotal {
			break
		}
		if !keep[i] {
			keep[i] = true
			count++
		}
	}

	newU, err := projectEntities(db.Reviewers, keep[:db.Reviewers.Schema.Len()])
	if err != nil {
		return nil, err
	}
	newI, err := projectEntities(db.Items, keep[db.Reviewers.Schema.Len():])
	if err != nil {
		return nil, err
	}
	return rebuildWithEntities(db, newU, newI, nil, db.Name+"-attrs")
}

// projectEntities keeps only the flagged attributes of a table.
func projectEntities(t *EntityTable, keep []bool) (*EntityTable, error) {
	var attrs []Attribute
	for a := 0; a < t.Schema.Len(); a++ {
		if keep[a] {
			attrs = append(attrs, t.Schema.At(a))
		}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	// AppendRow reads only the attributes of nt's schema.
	nt := NewEntityTable(t.Name, schema)
	for row := 0; row < t.Len(); row++ {
		values, setValues := rowCells(t, row, nil)
		if _, err := nt.AppendRow(t.Key(row), values, setValues); err != nil {
			return nil, err
		}
	}
	return nt, nil
}

// SampleAttributeValues keeps a random fraction of each attribute's value
// domain; entities holding a dropped value become missing on that
// attribute, as in Figure 10(c). At least one value per attribute survives.
func SampleAttributeValues(db *DB, fraction float64, seed int64) (*DB, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("dataset: fraction %v out of (0,1]", fraction)
	}
	rng := rand.New(rand.NewSource(seed))
	newU, err := sampleValues(db.Reviewers, fraction, rng)
	if err != nil {
		return nil, err
	}
	newI, err := sampleValues(db.Items, fraction, rng)
	if err != nil {
		return nil, err
	}
	return rebuildWithEntities(db, newU, newI, nil, db.Name+"-vals")
}

func sampleValues(t *EntityTable, fraction float64, rng *rand.Rand) (*EntityTable, error) {
	// Decide kept values per attribute.
	keep := make([]map[string]bool, t.Schema.Len())
	for a := range keep {
		values := t.Dict(a).Values()
		keep[a] = make(map[string]bool, len(values))
		kept := 0
		for _, v := range values {
			if rng.Float64() < fraction {
				keep[a][v] = true
				kept++
			}
		}
		if kept == 0 && len(values) > 0 {
			keep[a][values[rng.Intn(len(values))]] = true
		}
	}
	nt := NewEntityTable(t.Name, t.Schema)
	kept := func(a int, s string) bool { return keep[a][s] }
	for row := 0; row < t.Len(); row++ {
		values, setValues := rowCells(t, row, kept)
		if _, err := nt.AppendRow(t.Key(row), values, setValues); err != nil {
			return nil, err
		}
	}
	return nt, nil
}

// rebuildWithEntities re-attaches the rating table to transformed entity
// tables and freezes. Item rows are unchanged; reviewer row u becomes
// oldToNewU[u], and a record whose reviewer it lacks is dropped, or, when
// oldToNewU is nil, every row is unchanged.
func rebuildWithEntities(db *DB, newU, newI *EntityTable, oldToNewU map[int]int, name string) (*DB, error) {
	rt, err := NewRatingTable(db.Ratings.Dimensions...)
	if err != nil {
		return nil, err
	}
	scores := make([]Score, len(db.Ratings.Dimensions))
	for r := 0; r < db.Ratings.Len(); r++ {
		u, ok := int(db.Ratings.Reviewer[r]), true
		if oldToNewU != nil {
			if u, ok = oldToNewU[u]; !ok {
				continue
			}
		}
		for d := range scores {
			scores[d] = db.Ratings.Scores[d][r]
		}
		if err := rt.Append(u, int(db.Ratings.Item[r]), scores); err != nil {
			return nil, err
		}
	}
	out := NewDB(name, newU, newI, rt)
	if err := out.Freeze(); err != nil {
		return nil, err
	}
	return out, nil
}
