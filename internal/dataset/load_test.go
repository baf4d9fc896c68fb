package dataset_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/gen"
)

// readEntityCSVReference is the map-based entity reader ReadEntityCSV
// replaced, kept as its oracle: every cell goes into one of two maps keyed
// by attribute name, and AppendRow takes the row from there.
func readEntityCSVReference(r io.Reader, name string, kinds map[string]dataset.Kind) (*dataset.EntityTable, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	if len(header) == 0 || header[0] != "_key" {
		return nil, fmt.Errorf("first column must be _key, got %q", strings.Join(header, ","))
	}
	attrs := make([]dataset.Attribute, 0, len(header)-1)
	for _, h := range header[1:] {
		attrs = append(attrs, dataset.Attribute{Name: h, Kind: kinds[h]})
	}
	schema, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	t := dataset.NewEntityTable(name, schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("%d fields, want %d", len(rec), len(header))
		}
		values := map[string]string{}
		setValues := map[string][]string{}
		for a, attr := range attrs {
			cell := rec[a+1]
			if cell == dataset.MissingLabel {
				continue
			}
			if attr.Kind == dataset.MultiValued {
				setValues[attr.Name] = strings.Split(cell, ";")
			} else {
				values[attr.Name] = cell
			}
		}
		if _, err := t.AppendRow(rec[0], values, setValues); err != nil {
			return nil, err
		}
	}
}

// diffTables returns the first difference between two entity tables: name,
// schema, each row's key, each dictionary in id order, each row's value or
// value set and, when frozen, each flat column row by row, atomic ids or
// CSR runs.
func diffTables(got, want *dataset.EntityTable) error {
	if got.Name != want.Name {
		return fmt.Errorf("table %q, want %q", got.Name, want.Name)
	}
	if !reflect.DeepEqual(got.Schema.Attributes(), want.Schema.Attributes()) {
		return fmt.Errorf("%s: schema %v, want %v", want.Name, got.Schema.Attributes(), want.Schema.Attributes())
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%s: %d rows, want %d", want.Name, got.Len(), want.Len())
	}
	for row := 0; row < want.Len(); row++ {
		if got.Key(row) != want.Key(row) {
			return fmt.Errorf("%s row %d: key %q, want %q", want.Name, row, got.Key(row), want.Key(row))
		}
	}
	for a := 0; a < want.Schema.Len(); a++ {
		attr := want.Schema.At(a)
		gd, wd := got.Dict(a), want.Dict(a)
		if gd.Len() != wd.Len() {
			return fmt.Errorf("%s.%s: dictionary of %d, want %d", want.Name, attr.Name, gd.Len(), wd.Len())
		}
		for id := 0; id < wd.Len(); id++ {
			if v := dataset.ValueID(id); gd.Value(v) != wd.Value(v) {
				return fmt.Errorf("%s.%s: id %d is %q, want %q", want.Name, attr.Name, id, gd.Value(v), wd.Value(v))
			}
		}
		for row := 0; row < want.Len(); row++ {
			if attr.Kind == dataset.Atomic && got.AtomicValue(a, row) != want.AtomicValue(a, row) ||
				attr.Kind == dataset.MultiValued && !slices.Equal(got.MultiValues(a, row), want.MultiValues(a, row)) {
				return fmt.Errorf("%s.%s row %d: %q, want %q", want.Name, attr.Name, row, got.ValueString(a, row), want.ValueString(a, row))
			}
		}
		if err := diffColumns(got.Column(a), want.Column(a), want.Len()); err != nil {
			return fmt.Errorf("%s.%s: flat column: %w", want.Name, attr.Name, err)
		}
	}
	return nil
}

// diffColumns returns the first difference between two flat columns of
// rows rows, nil meaning not frozen: kind and NValues, then each row's id
// or CSR run, then the lengths of Values and Offsets.
func diffColumns(g, w *dataset.AttrColumn, rows int) error {
	switch {
	case g == nil || w == nil:
		if (g == nil) != (w == nil) {
			return fmt.Errorf("frozen %t, want %t", g != nil, w != nil)
		}
		return nil
	case g.Kind != w.Kind || g.NValues != w.NValues:
		return fmt.Errorf("%s of %d ids, want %s of %d", g.Kind, g.NValues, w.Kind, w.NValues)
	case len(g.Values) != len(w.Values) || len(g.Offsets) != len(w.Offsets):
		return fmt.Errorf("%d values and %d offsets, want %d and %d", len(g.Values), len(g.Offsets), len(w.Values), len(w.Offsets))
	}
	for row := 0; row < rows; row++ {
		gr, wr := g.Values[row:row+1], w.Values[row:row+1]
		if w.Kind == dataset.MultiValued {
			gr, wr = g.Values[g.Offsets[row]:g.Offsets[row+1]], w.Values[w.Offsets[row]:w.Offsets[row+1]]
		}
		if !slices.Equal(gr, wr) {
			return fmt.Errorf("row %d: ids %v, want %v", row, gr, wr)
		}
	}
	return nil
}

// diffDBs is diffTables over both entity tables, then diffRatings.
func diffDBs(got, want *dataset.DB) error {
	if err := diffTables(got.Reviewers, want.Reviewers); err != nil {
		return err
	}
	if err := diffTables(got.Items, want.Items); err != nil {
		return err
	}
	return diffRatings(got.Ratings, want.Ratings)
}

// diffRatings returns the first difference between two rating tables: the
// dimensions, then the reviewer, item and score columns.
func diffRatings(g, w *dataset.RatingTable) error {
	switch {
	case !slices.Equal(g.Dimensions, w.Dimensions):
		return fmt.Errorf("dimensions %v, want %v", g.Dimensions, w.Dimensions)
	case !slices.Equal(g.Reviewer, w.Reviewer):
		return fmt.Errorf("ratings' reviewer column differs")
	case !slices.Equal(g.Item, w.Item):
		return fmt.Errorf("ratings' item column differs")
	}
	for d := range w.Scores {
		if !slices.Equal(g.Scores[d], w.Scores[d]) {
			return fmt.Errorf("ratings' %s scores differ", w.Dimensions[d].Name)
		}
	}
	return nil
}

// multiValued lists db's multi-valued attributes, what LoadDir must be told.
func multiValued(db *dataset.DB) map[string]dataset.Kind {
	kinds := map[string]dataset.Kind{}
	for _, t := range []*dataset.EntityTable{db.Reviewers, db.Items} {
		for _, a := range t.Schema.Attributes() {
			if a.Kind == dataset.MultiValued {
				kinds[a.Name] = a.Kind
			}
		}
	}
	return kinds
}

// TestLoadDirEqualsGenerated: a database saved and loaded back is the one
// generated, id for id — on every shape the generators make — and saving
// the loaded one writes the same bytes again.
func TestLoadDirEqualsGenerated(t *testing.T) {
	for _, name := range []string{"yelp", "movielens", "hotels", "demo"} {
		t.Run(name, func(t *testing.T) {
			db, err := gen.ByName(name, gen.Config{Scale: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := dataset.SaveDir(db, dir); err != nil {
				t.Fatal(err)
			}
			loaded, err := dataset.LoadDir(dir, db.Name, multiValued(db))
			if err != nil {
				t.Fatal(err)
			}
			if err := diffDBs(loaded, db); err != nil {
				t.Fatal(err)
			}
			again := t.TempDir()
			if err := dataset.SaveDir(loaded, again); err != nil {
				t.Fatal(err)
			}
			for _, file := range []string{"reviewers.csv", "items.csv", "ratings.csv"} {
				first, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				second, err := os.ReadFile(filepath.Join(again, file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, second) {
					t.Fatalf("%s: saved again after LoadDir, %d bytes differ from the %d first saved", file, len(second), len(first))
				}
			}
		})
	}
}

// writeDir writes the three CSV files of a saved database into a fresh
// directory and returns it.
func writeDir(t *testing.T, reviewers, items, ratings string) string {
	t.Helper()
	dir := t.TempDir()
	for file, body := range map[string]string{"reviewers.csv": reviewers, "items.csv": items, "ratings.csv": ratings} {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadDirRejectsScaleAbove255: a Score is one byte, so a score of 300
// on a 300-level scale stored as 300 mod 256 = 44. The scale is refused
// instead, naming the dimension.
func TestLoadDirRejectsScaleAbove255(t *testing.T) {
	dir := writeDir(t, "_key,g\nu1,F\n", "_key,city\ni1,NYC\n", "_reviewer,_item,overall:300\nu1,i1,300\n")
	db, err := dataset.LoadDir(dir, "wide", nil)
	const want = `dataset: dimension "overall" has scale 300 outside 2..255`
	if err == nil {
		t.Fatalf("LoadDir accepted scale 300; the score loaded as %d", db.Ratings.Scores[0][0])
	}
	if err.Error() != want {
		t.Fatalf("LoadDir: %v, want %s", err, want)
	}
	if _, err := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 255}); err != nil {
		t.Fatalf("scale 255: %v", err)
	}
}

// TestDictionaryBoundary: ids are 16 bits and 0 is the missing value, so
// an attribute holds at most 65 535 values. That many load, each id
// naming its own value; one more is refused by LoadDir, naming the
// attribute and the line, and by AppendRow, naming the attribute, on
// either kind of attribute.
func TestDictionaryBoundary(t *testing.T) {
	var reviewers strings.Builder
	reviewers.WriteString("_key,name\n")
	for v := 0; v < dataset.MaxValues; v++ {
		fmt.Fprintf(&reviewers, "u%d,v%d\n", v, v)
	}
	items, ratings := "_key,city\ni1,NYC\n", "_reviewer,_item,overall:5\nu0,i1,3\n"
	db, err := dataset.LoadDir(writeDir(t, reviewers.String(), items, ratings), "full", nil)
	if err != nil {
		t.Fatal(err)
	}
	d := db.Reviewers.Dict(0)
	if d.Len() != dataset.MaxValues+1 || db.Reviewers.Column(0).NValues != d.Len() {
		t.Fatalf("dictionary of %d ids, column of %d, want %d", d.Len(), db.Reviewers.Column(0).NValues, dataset.MaxValues+1)
	}
	for v := 1; v <= dataset.MaxValues; v++ {
		id := dataset.ValueID(v)
		if s := d.Value(id); s != fmt.Sprintf("v%d", v-1) {
			t.Fatalf("id %d is %q, want v%d", v, s, v-1)
		}
		if back, ok := d.Lookup(d.Value(id)); !ok || back != id || db.Reviewers.AtomicValue(0, v-1) != id {
			t.Fatalf("id %d: Lookup %d, %t; row %d holds %d", v, back, ok, v-1, db.Reviewers.AtomicValue(0, v-1))
		}
	}

	fmt.Fprintf(&reviewers, "u%d,v%d\n", dataset.MaxValues, dataset.MaxValues)
	_, err = dataset.LoadDir(writeDir(t, reviewers.String(), items, ratings), "over", nil)
	if want := `dataset: reviewers line 65537: attribute "name": more than 65535 distinct values`; err == nil || err.Error() != want {
		t.Fatalf("LoadDir past the limit: %v, want %s", err, want)
	}

	for _, kind := range []dataset.Kind{dataset.Atomic, dataset.MultiValued} {
		tbl := dataset.NewEntityTable("reviewers", dataset.MustSchema(dataset.Attribute{Name: "name", Kind: kind}))
		row := func(v int) error {
			s := fmt.Sprintf("v%d", v)
			if kind == dataset.Atomic {
				_, err := tbl.AppendRow(s, map[string]string{"name": s}, nil)
				return err
			}
			_, err := tbl.AppendRow(s, nil, map[string][]string{"name": {s, "v0"}})
			return err
		}
		for v := 0; v < dataset.MaxValues; v++ {
			if err := row(v); err != nil {
				t.Fatalf("%s row %d: %v", kind, v, err)
			}
		}
		err := row(dataset.MaxValues)
		if want := `dataset: reviewers: attribute "name": more than 65535 distinct values`; err == nil || err.Error() != want {
			t.Fatalf("%s AppendRow past the limit: %v, want %s", kind, err, want)
		}
	}
}

// TestLoadDirRejectsDuplicateKey: two reviewers keyed "u", an F rating 5
// and an M rating 1. A loader that joins ratings through a key → row map
// keeping the last row points both ratings at the M reviewer; the key is
// refused instead.
func TestLoadDirRejectsDuplicateKey(t *testing.T) {
	reviewers := dataset.NewEntityTable("reviewers", dataset.MustSchema(dataset.Attribute{Name: "gender"}))
	items := dataset.NewEntityTable("items", dataset.MustSchema(dataset.Attribute{Name: "city"}))
	ratings, err := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	if err != nil {
		t.Fatal(err)
	}
	for row, r := range []struct {
		gender string
		score  dataset.Score
	}{{"F", 5}, {"M", 1}} {
		if _, err := reviewers.AppendRow("u", map[string]string{"gender": r.gender}, nil); err != nil {
			t.Fatal(err)
		}
		if err := ratings.Append(row, 0, []dataset.Score{r.score}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := items.AppendRow("i", map[string]string{"city": "NYC"}, nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.SaveDir(dataset.NewDB("dup", reviewers, items, ratings), dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.LoadDir(dir, "dup", nil)
	const want = `dataset: reviewers: key "u" on rows 0 and 1`
	if err == nil {
		t.Fatalf("LoadDir accepted a repeated key; ratings joined to reviewer rows %v, written as [0 1]", loaded.Ratings.Reviewer)
	}
	if err.Error() != want {
		t.Fatalf("LoadDir: %v, want %s", err, want)
	}
}

// TestReadEntityCSVLinesLongerThanTheBuffer: lines longer than the
// reader's 64 KiB buffer, which no fuzz input reaches, quoted and not, read
// as the reference reads them.
func TestReadEntityCSVLinesLongerThanTheBuffer(t *testing.T) {
	big := strings.Repeat("x", 200_000)
	in := "_key,city,tags\nu1," + big + ",a;b\n" +
		"\"u\n2\",\"" + big + "\n" + big + "\"\"\",\"" + big + ";c\"\r\n" +
		"u3,NYC," + big
	kinds := map[string]dataset.Kind{"tags": dataset.MultiValued}
	got, err := dataset.ReadEntityCSV(strings.NewReader(in), "t", kinds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readEntityCSVReference(strings.NewReader(in), "t", kinds)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffTables(got, want); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("%d rows, want 3", got.Len())
	}
}

// FuzzReadEntityCSV holds ReadEntityCSV to the map-based reader it
// replaced: the same table, or both fail. multi marks attribute i
// multi-valued when bit i%8 is set.
func FuzzReadEntityCSV(f *testing.F) {
	for _, in := range []string{
		// TestMissingLabelInsideSet's input.
		"_key,tags\nu0,a;__missing__\nu1,__missing__;__missing__\nu2,__missing__;b;;a\n",
		// TestReadEntityCSVRejectsMalformed's inputs.
		"name,city\na,b\n", "_key,city\nu1\n", "", "_key,city\nu1,NYC,extra\n",
		// Quoted cells holding ',', ';' and '\n'.
		"_key,city,tags\nu1,\"a,b\",\"x;y\"\n\"u\n2\",\"line\nbreak\",\"p;\nq;p\"\n",
		// A last line without a newline, and an empty atomic cell.
		"_key,city,tags\nu1,NYC,a;b\nu2,,b;a",
		// CRLF line ends, a quoted one among them.
		"_key,city,tags\r\nu1,NYC,a;b\r\n\"u\r\n2\",\"LA\r\n\",b\r\n",
		// A lone '\r' line, which ends the input.
		"_key\n\r",
		// Blank lines between records, and before the header.
		"\n_key,city\n\nu1,NYC\n\n\r\n\nu2,LA\n",
		// A bare '"' inside an unquoted field.
		"_key,city\nu1,N\"YC\n",
		// A quoted last field with no trailing newline, and one with a "".
		"_key,city\nu1,\"NYC\"\nu2,\"L\"\"A\"",
		// Keys the key blob holds as they are: empty, unquoted and quoted;
		// non-ASCII; holding a quoted newline, alone and inside a key.
		"_key,city\n,NYC\n\"\",LA\n",
		"_key,city\nü→日本,NYC\n\"ß,ø\",LA\n",
		"_key,city\n\"\n\",NYC\n\"u\nv\r\nw\",LA\n",
	} {
		for _, multi := range []uint8{0, 0b10, 0xff} {
			f.Add(in, multi)
		}
	}
	f.Fuzz(func(t *testing.T, in string, multi uint8) {
		kinds := map[string]dataset.Kind{}
		if header, err := csv.NewReader(strings.NewReader(in)).Read(); err == nil {
			for i, h := range header[1:] {
				if multi>>(i%8)&1 == 1 {
					kinds[h] = dataset.MultiValued
				}
			}
		}
		got, err := dataset.ReadEntityCSV(strings.NewReader(in), "t", kinds)
		want, wantErr := readEntityCSVReference(strings.NewReader(in), "t", kinds)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadEntityCSV error %v, reference error %v", err, wantErr)
		}
		if err == nil {
			if d := diffTables(got, want); d != nil {
				t.Fatal(d)
			}
		}
	})
}

// readRatingCSVReference is the encoding/csv reader ReadRatingCSV
// replaced, kept as its oracle.
func readRatingCSVReference(r io.Reader, reviewers, items *dataset.EntityTable) (*dataset.RatingTable, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	if len(header) < 3 || header[0] != "_reviewer" || header[1] != "_item" {
		return nil, fmt.Errorf("header %q", header)
	}
	dims := make([]dataset.Dimension, 0, len(header)-2)
	for _, h := range header[2:] {
		name, scale, ok := strings.Cut(h, ":")
		if !ok {
			return nil, fmt.Errorf("column %q has no scale", h)
		}
		m, err := strconv.Atoi(scale)
		if err != nil {
			return nil, err
		}
		dims = append(dims, dataset.Dimension{Name: name, Scale: m})
	}
	rt, err := dataset.NewRatingTable(dims...)
	if err != nil {
		return nil, err
	}
	row := func(t *dataset.EntityTable, key string) (int, error) {
		for i := 0; i < t.Len(); i++ {
			if t.Key(i) == key {
				return i, nil
			}
		}
		return 0, fmt.Errorf("unknown key %q", key)
	}
	scores := make([]dataset.Score, len(dims))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rt, nil
		}
		if err != nil {
			return nil, err
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("%d fields, want %d", len(rec), len(header))
		}
		u, err := row(reviewers, rec[0])
		if err != nil {
			return nil, err
		}
		i, err := row(items, rec[1])
		if err != nil {
			return nil, err
		}
		for d := range dims {
			v, err := strconv.Atoi(rec[d+2])
			if err != nil {
				return nil, err
			}
			if v < 0 || v > dims[d].Scale {
				return nil, fmt.Errorf("score %d out of 0..%d", v, dims[d].Scale)
			}
			scores[d] = dataset.Score(v)
		}
		if err := rt.Append(u, i, scores); err != nil {
			return nil, err
		}
	}
}

// FuzzReadRatingCSV holds ReadRatingCSV to the encoding/csv reader it
// replaced: the same dimensions and reviewer, item and score columns, or
// both fail. The entity keys hold the bytes a quoted field carries.
func FuzzReadRatingCSV(f *testing.F) {
	schema := dataset.MustSchema(dataset.Attribute{Name: "g"})
	reviewers := dataset.NewEntityTable("reviewers", schema)
	items := dataset.NewEntityTable("items", schema)
	for _, k := range []string{"u1", "u\n2", "u,3", `u"4`, ""} {
		if _, err := reviewers.AppendRow(k, nil, nil); err != nil {
			f.Fatal(err)
		}
	}
	for _, k := range []string{"i1", "i 2", "i\r3"} {
		if _, err := items.AppendRow(k, nil, nil); err != nil {
			f.Fatal(err)
		}
	}
	for _, in := range []string{
		// TestReadRatingCSVRejectsMalformed's inputs.
		"_reviewer,wrong\nu1,i1\n", "_reviewer,_item,overall\nu1,i1,3\n",
		"_reviewer,_item,overall:5\nuX,i1,3\n", "_reviewer,_item,overall:5\nu1,iX,3\n",
		"_reviewer,_item,overall:5\nu1,i1,9\n", "_reviewer,_item,overall:5\nu1,i1,abc\n",
		"_reviewer,_item,overall:5\n\"u\n2\",i1,3\nu1,i1,3\"\n",
		// Quoted keys and scores, two dimensions, signs and leading zeros.
		"_reviewer,_item,overall:5,food:4\n\"u,3\",\"i 2\",\"5\",+4\n\"u\"\"4\",i1,05,-0\n,i1,0,1\n",
		// CRLF line ends, and a last line with no newline.
		"_reviewer,_item,overall:5\r\nu1,i1,3\r\n\"u\r\n2\",i1,2\r\nu1,\"i 2\",1",
		"_reviewer,_item,overall:5\nu1,i1,3",
		// A scale above 255, which a one-byte Score would wrap.
		"_reviewer,_item,overall:300\nu1,i1,300\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := dataset.ReadRatingCSV(strings.NewReader(in), reviewers, items)
		want, wantErr := readRatingCSVReference(strings.NewReader(in), reviewers, items)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadRatingCSV error %v, reference error %v", err, wantErr)
		}
		if err == nil {
			if d := diffRatings(got, want); d != nil {
				t.Fatal(d)
			}
		}
	})
}
