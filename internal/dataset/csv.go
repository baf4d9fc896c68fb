package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CSV persistence. A database serializes to three files in one directory:
// reviewers.csv, items.csv, ratings.csv. Entity files have a leading "_key"
// column followed by one column per attribute; multi-valued attributes join
// their values with ';'. The ratings file has "_reviewer","_item" key columns
// followed by one column per rating dimension, with the scale encoded in the
// header as "name:scale".

// WriteEntityCSV serializes an entity table.
func WriteEntityCSV(w io.Writer, t *EntityTable) error {
	cw := csv.NewWriter(w)
	header := append([]string{"_key"}, t.Schema.Names()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for r := 0; r < t.Len(); r++ {
		row[0] = t.Keys[r]
		for a := 0; a < t.Schema.Len(); a++ {
			row[a+1] = t.ValueString(a, r)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadEntityCSV parses an entity table with the given name and kinds; kinds
// maps attribute name → Kind, defaulting to Atomic when absent.
func ReadEntityCSV(r io.Reader, name string, kinds map[string]Kind) (*EntityTable, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading %s header: %w", name, err)
	}
	if len(header) == 0 || header[0] != "_key" {
		return nil, fmt.Errorf("dataset: %s: first column must be _key, got %q", name, strings.Join(header, ","))
	}
	attrs := make([]Attribute, 0, len(header)-1)
	for _, h := range header[1:] {
		attrs = append(attrs, Attribute{Name: h, Kind: kinds[h]})
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	t := NewEntityTable(name, schema)
	// AppendRow reads the two maps and keeps neither.
	values := make(map[string]string)
	setValues := make(map[string][]string)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: %w", name, line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: %s line %d: %d fields, want %d", name, line, len(rec), len(header))
		}
		clear(values)
		clear(setValues)
		for a, attr := range attrs {
			cell := rec[a+1]
			if cell == MissingLabel {
				continue
			}
			if attr.Kind == MultiValued {
				setValues[attr.Name] = strings.Split(cell, ";")
			} else {
				values[attr.Name] = cell
			}
		}
		// encoding/csv cuts a record's fields out of one string per line: a
		// key stored as is would keep its whole line alive (12.6 MB of
		// reviewers.csv on Yelp). Dictionary.Intern clones for the same reason.
		if _, err := t.AppendRow(strings.Clone(rec[0]), values, setValues); err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: %w", name, line, err)
		}
	}
	return t, nil
}

// WriteRatingCSV serializes a rating table using entity keys as references.
func WriteRatingCSV(w io.Writer, db *DB) error {
	cw := csv.NewWriter(w)
	header := []string{"_reviewer", "_item"}
	for _, d := range db.Ratings.Dimensions {
		header = append(header, fmt.Sprintf("%s:%d", d.Name, d.Scale))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for r := 0; r < db.Ratings.Len(); r++ {
		row[0] = db.Reviewers.Keys[db.Ratings.Reviewer[r]]
		row[1] = db.Items.Keys[db.Ratings.Item[r]]
		for d := range db.Ratings.Dimensions {
			row[d+2] = strconv.Itoa(int(db.Ratings.Scores[d][r]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadRatingCSV parses a rating table, resolving entity keys through the
// already-loaded reviewer and item tables.
func ReadRatingCSV(r io.Reader, reviewers, items *EntityTable) (*RatingTable, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading ratings header: %w", err)
	}
	if len(header) < 3 || header[0] != "_reviewer" || header[1] != "_item" {
		return nil, fmt.Errorf("dataset: ratings header must start with _reviewer,_item")
	}
	dims := make([]Dimension, 0, len(header)-2)
	for _, h := range header[2:] {
		name, scaleStr, ok := strings.Cut(h, ":")
		if !ok {
			return nil, fmt.Errorf("dataset: rating column %q missing :scale suffix", h)
		}
		scale, err := strconv.Atoi(scaleStr)
		if err != nil {
			return nil, fmt.Errorf("dataset: rating column %q: bad scale: %w", h, err)
		}
		dims = append(dims, Dimension{Name: name, Scale: scale})
	}
	rt, err := NewRatingTable(dims...)
	if err != nil {
		return nil, err
	}
	cr.ReuseRecord = true // no field outlives its line
	uIndex := keyIndex(reviewers.Keys)
	iIndex := keyIndex(items.Keys)
	scores := make([]Score, len(dims))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: ratings line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: ratings line %d: %d fields, want %d", line, len(rec), len(header))
		}
		u, ok := uIndex[rec[0]]
		if !ok {
			return nil, fmt.Errorf("dataset: ratings line %d: unknown reviewer %q", line, rec[0])
		}
		i, ok := iIndex[rec[1]]
		if !ok {
			return nil, fmt.Errorf("dataset: ratings line %d: unknown item %q", line, rec[1])
		}
		for d := range dims {
			v, err := strconv.Atoi(rec[d+2])
			if err != nil {
				return nil, fmt.Errorf("dataset: ratings line %d dim %q: %w", line, dims[d].Name, err)
			}
			if v < 0 || v > dims[d].Scale {
				return nil, fmt.Errorf("dataset: ratings line %d dim %q: score %d out of 0..%d", line, dims[d].Name, v, dims[d].Scale)
			}
			scores[d] = Score(v)
		}
		if err := rt.Append(u, i, scores); err != nil {
			return nil, fmt.Errorf("dataset: ratings line %d: %w", line, err)
		}
	}
	return rt, nil
}

func keyIndex(keys []string) map[string]int {
	m := make(map[string]int, len(keys))
	for i, k := range keys {
		m[k] = i
	}
	return m
}

// SaveDir writes the database as reviewers.csv, items.csv, ratings.csv in
// dir, creating it if needed.
func SaveDir(db *DB, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("dataset: writing %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write("reviewers.csv", func(w io.Writer) error { return WriteEntityCSV(w, db.Reviewers) }); err != nil {
		return err
	}
	if err := write("items.csv", func(w io.Writer) error { return WriteEntityCSV(w, db.Items) }); err != nil {
		return err
	}
	return write("ratings.csv", func(w io.Writer) error { return WriteRatingCSV(w, db) })
}

// LoadDir reads a database previously written by SaveDir. kinds carries the
// multi-valued attribute declarations for both entity tables (attribute
// names are unique across tables in all shipped datasets).
func LoadDir(dir, name string, kinds map[string]Kind) (*DB, error) {
	open := func(file string) (*os.File, error) { return os.Open(filepath.Join(dir, file)) }

	rf, err := open("reviewers.csv")
	if err != nil {
		return nil, err
	}
	reviewers, err := ReadEntityCSV(rf, "reviewers", kinds)
	rf.Close()
	if err != nil {
		return nil, err
	}

	itf, err := open("items.csv")
	if err != nil {
		return nil, err
	}
	items, err := ReadEntityCSV(itf, "items", kinds)
	itf.Close()
	if err != nil {
		return nil, err
	}

	raf, err := open("ratings.csv")
	if err != nil {
		return nil, err
	}
	ratings, err := ReadRatingCSV(raf, reviewers, items)
	raf.Close()
	if err != nil {
		return nil, err
	}

	db := NewDB(name, reviewers, items, ratings)
	if err := db.Freeze(); err != nil {
		return nil, err
	}
	return db, nil
}
