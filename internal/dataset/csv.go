package dataset

import (
	"bytes"
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
		row[0] = t.Key(r)
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

// readEntityCSV parses an entity table with the given name and kinds, with
// the columns sized for lines rows; kinds maps attribute name → Kind,
// defaulting to Atomic when absent. A wrong count costs appends or slack,
// never a different table.
func readEntityCSV(r io.Reader, name string, kinds map[string]Kind, lines int) (*EntityTable, error) {
	cr := newRecordReader(r)
	header, err := readHeader(cr)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading %s header: %w", name, err)
	}
	if header[0] != "_key" {
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
	t.reserve(lines)
	for {
		rec, err := cr.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: %w", name, cr.line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: %s line %d: %d fields, want %d", name, cr.start, len(rec), len(header))
		}
		// A field is overwritten by the next read: the key is copied into
		// the key blob, and a cell's value only when the dictionary has not
		// seen it.
		err = t.appendKey(string(rec[0]))
		for a := 0; a < len(attrs) && err == nil; a++ {
			err = t.appendCSVCell(a, rec[a+1])
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: %w", name, cr.start, err)
		}
	}
	return t, nil
}

// readHeader reads cr's first record as strings; it has at least one field.
func readHeader(cr *recordReader) ([]string, error) {
	rec, err := cr.read()
	if err != nil {
		return nil, err
	}
	header := make([]string, len(rec))
	for i, f := range rec {
		header[i] = string(f)
	}
	return header, nil
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
		row[0] = db.Reviewers.Key(int(db.Ratings.Reviewer[r]))
		row[1] = db.Items.Key(int(db.Ratings.Item[r]))
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

// readRatingCSV parses a rating table, with the columns sized for lines
// records, resolving entity keys through the already-loaded reviewer and
// item tables. A key held by two rows of either table is an error: its
// ratings could join to only one of them.
func readRatingCSV(r io.Reader, reviewers, items *EntityTable, lines int) (*RatingTable, error) {
	cr := newRecordReader(r)
	header, err := readHeader(cr)
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
	rt.reserve(lines)
	uIndex, err := keyIndex(reviewers)
	if err != nil {
		return nil, err
	}
	iIndex, err := keyIndex(items)
	if err != nil {
		return nil, err
	}
	scores := make([]Score, len(dims))
	for {
		rec, err := cr.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: ratings line %d: %w", cr.line, err)
		}
		line := cr.start
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: ratings line %d: %d fields, want %d", line, len(rec), len(header))
		}
		u, ok := uIndex[string(rec[0])]
		if !ok {
			return nil, fmt.Errorf("dataset: ratings line %d: unknown reviewer %q", line, rec[0])
		}
		i, ok := iIndex[string(rec[1])]
		if !ok {
			return nil, fmt.Errorf("dataset: ratings line %d: unknown item %q", line, rec[1])
		}
		for d := range dims {
			v, err := strconv.Atoi(string(rec[d+2]))
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

// keyIndex maps each of t's keys to its row, refusing a key two rows hold.
// The map's keys share one copy of the key blob.
func keyIndex(t *EntityTable) (map[string]int, error) {
	blob := string(t.keys)
	m := make(map[string]int, t.Len())
	lo := int32(0)
	for i, hi := range t.keyEnds {
		k := blob[lo:hi]
		if j, dup := m[k]; dup {
			return nil, fmt.Errorf("dataset: %s: key %q on rows %d and %d", t.Name, k, j, i)
		}
		m[k], lo = i, hi
	}
	return m, nil
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
	var reviewers, items *EntityTable
	var ratings *RatingTable
	for _, file := range []string{"reviewers.csv", "items.csv", "ratings.csv"} {
		f, lines, err := openCounted(filepath.Join(dir, file))
		if err != nil {
			return nil, err
		}
		switch file {
		case "reviewers.csv":
			reviewers, err = readEntityCSV(f, "reviewers", kinds, lines)
		case "items.csv":
			items, err = readEntityCSV(f, "items", kinds, lines)
		default:
			ratings, err = readRatingCSV(f, reviewers, items, lines)
		}
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	db := NewDB(name, reviewers, items, ratings)
	if err := db.Freeze(); err != nil {
		return nil, err
	}
	return db, nil
}

// openCounted opens path and returns it rewound, with its '\n's + 1 (a last
// line may lack one). Every column the file fills is sized from that count
// once, instead of doubling its way there and keeping the slack; a newline
// inside a quoted cell only makes it high.
func openCounted(path string) (f *os.File, lines int, err error) {
	if f, err = os.Open(path); err != nil {
		return nil, 0, err
	}
	lines, buf := 1, make([]byte, 64<<10)
	for err == nil {
		var n int
		n, err = f.Read(buf)
		lines += bytes.Count(buf[:n], []byte{'\n'})
	}
	if err == io.EOF {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, lines, nil
}
