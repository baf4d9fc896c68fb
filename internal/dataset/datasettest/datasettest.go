// Package datasettest holds what the tests of several packages do to a
// database: fingerprint it, and blank some of its cells.
package datasettest

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"subdex/internal/dataset"
)

// Digest renders a byte-stable FNV-1a fingerprint of a frozen database's
// content: the schema (attribute names and kinds), every entity's
// attribute values in row order, the rating dimensions, and every rating
// record's reviewer, item, and per-dimension scores. Two
// databases digest equally iff the generator produced identical data, so
// pinning the digest of each generator's default seed catches platform or
// toolchain drift in math/rand or float handling before it can corrupt
// the golden exploration traces built on top of the generated data.
func Digest(db *dataset.DB) string {
	h := fnv.New64a()
	write := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
	}
	write("db:%s\x00", db.Name)
	for _, t := range []*dataset.EntityTable{db.Reviewers, db.Items} {
		write("table:%s rows:%d\x00", t.Name, t.Len())
		for a := 0; a < t.Schema.Len(); a++ {
			attr := t.Schema.At(a)
			write("attr:%s kind:%d\x00", attr.Name, attr.Kind)
		}
		for row := 0; row < t.Len(); row++ {
			write("row:%d\x00", row)
			for a := 0; a < t.Schema.Len(); a++ {
				switch t.Schema.At(a).Kind {
				case dataset.Atomic:
					write("%d,", t.AtomicValue(a, row))
				case dataset.MultiValued:
					for _, v := range t.MultiValues(a, row) {
						write("%d,", v)
					}
					write(";")
				}
			}
		}
	}
	write("ratings:%d\x00", db.Ratings.Len())
	for _, dim := range db.Ratings.Dimensions {
		write("dim:%s scale:%d\x00", dim.Name, dim.Scale)
	}
	for r := 0; r < db.Ratings.Len(); r++ {
		write("%d:%d", db.Ratings.Reviewer[r], db.Ratings.Item[r])
		for d := range db.Ratings.Dimensions {
			write(",%d", db.Ratings.Scores[d][r])
		}
		write(";")
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// WithMissingCells copies db with a seeded share of the atomic cells of
// both entity tables blank. No generator writes a missing atomic value, so
// without it the missing value never reaches a generated database's
// materialization.
func WithMissingCells(t testing.TB, db *dataset.DB, share float64, seed int64) *dataset.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	blank := func(src *dataset.EntityTable) *dataset.EntityTable {
		dst := dataset.NewEntityTable(src.Name, src.Schema)
		for row := 0; row < src.Len(); row++ {
			values, sets := map[string]string{}, map[string][]string{}
			for a := 0; a < src.Schema.Len(); a++ {
				attr, dict := src.Schema.At(a), src.Dict(a)
				switch {
				case attr.Kind == dataset.MultiValued:
					for _, v := range src.MultiValues(a, row) {
						sets[attr.Name] = append(sets[attr.Name], dict.Value(v))
					}
				case rng.Float64() >= share:
					values[attr.Name] = dict.Value(src.AtomicValue(a, row))
				}
			}
			if _, err := dst.AppendRow(src.Key(row), values, sets); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	rt, err := dataset.NewRatingTable(db.Ratings.Dimensions...)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]dataset.Score, len(db.Ratings.Dimensions))
	for r := 0; r < db.Ratings.Len(); r++ {
		for d := range scores {
			scores[d] = db.Ratings.Scores[d][r]
		}
		if err := rt.Append(int(db.Ratings.Reviewer[r]), int(db.Ratings.Item[r]), scores); err != nil {
			t.Fatal(err)
		}
	}
	out := dataset.NewDB(db.Name+"-missing", blank(db.Reviewers), blank(db.Items), rt)
	if err := out.Freeze(); err != nil {
		t.Fatal(err)
	}
	return out
}
