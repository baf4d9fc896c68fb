package ratingmap

// Microbenchmarks for the two Update paths on a Yelp-shaped workload:
// the fused columnar kernel vs the row-oriented reference scan. Run with
//   go test ./internal/ratingmap -bench BenchmarkUpdate -benchmem
// to reproduce the per-scan numbers quoted in EXPERIMENTS.md; the end-to-end
// step costs are the benchmark's (bench/, ratingmap.update_ns_per_record).

import (
	"fmt"
	"math/rand"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// benchDB builds a mid-sized synthetic database: wide-ish dictionaries,
// multi-valued sets, missing values and missing scores.
func benchDB(b *testing.B, nRev, nItem, nRec int) (*dataset.DB, []Key, []int32) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	rev := dataset.NewEntityTable("reviewers", dataset.MustSchema(
		dataset.Attribute{Name: "gender", Kind: dataset.Atomic},
		dataset.Attribute{Name: "age", Kind: dataset.Atomic},
		dataset.Attribute{Name: "tags", Kind: dataset.MultiValued},
	))
	item := dataset.NewEntityTable("items", dataset.MustSchema(
		dataset.Attribute{Name: "city", Kind: dataset.Atomic},
		dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued},
	))
	for u := 0; u < nRev; u++ {
		var tags []string
		for t := 0; t < rng.Intn(4); t++ {
			tags = append(tags, fmt.Sprintf("t%d", rng.Intn(30)))
		}
		if _, err := rev.AppendRow(fmt.Sprintf("u%d", u), map[string]string{
			"gender": fmt.Sprintf("g%d", rng.Intn(4)),
			"age":    fmt.Sprintf("a%d", rng.Intn(8)),
		}, map[string][]string{"tags": tags}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nItem; i++ {
		var cs []string
		for c := 0; c < 1+rng.Intn(3); c++ {
			cs = append(cs, fmt.Sprintf("c%d", rng.Intn(20)))
		}
		if _, err := item.AppendRow(fmt.Sprintf("i%d", i), map[string]string{
			"city": fmt.Sprintf("city%d", rng.Intn(12)),
		}, map[string][]string{"cuisine": cs}); err != nil {
			b.Fatal(err)
		}
	}
	ratings, err := dataset.NewRatingTable(
		dataset.Dimension{Name: "overall", Scale: 5},
		dataset.Dimension{Name: "value", Scale: 5},
	)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < nRec; r++ {
		if err := ratings.Append(rng.Intn(nRev), rng.Intn(nItem), []dataset.Score{
			dataset.Score(rng.Intn(6)), dataset.Score(rng.Intn(6))}); err != nil {
			b.Fatal(err)
		}
	}
	db := dataset.NewDB("bench", rev, item, ratings)
	if err := db.Freeze(); err != nil {
		b.Fatal(err)
	}
	var keys []Key
	for _, s := range []struct {
		side query.Side
		t    *dataset.EntityTable
	}{{query.ReviewerSide, db.Reviewers}, {query.ItemSide, db.Items}} {
		for a := 0; a < s.t.Schema.Len(); a++ {
			for d := range db.Ratings.Dimensions {
				keys = append(keys, Key{Side: s.side, Attr: s.t.Schema.At(a).Name, Dim: d})
			}
		}
	}
	recs := make([]int32, nRec)
	for i := range recs {
		recs[i] = int32(i)
	}
	return db, keys, recs
}

func benchUpdate(b *testing.B, disableKernel bool) {
	db, keys, recs := benchDB(b, 2000, 800, 100_000)
	bld := Builder{DB: db, DisableKernel: disableKernel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := bld.NewAccumulator(query.Description{}, keys)
		acc.Update(recs)
	}
}

func BenchmarkUpdateKernel(b *testing.B)    { benchUpdate(b, false) }
func BenchmarkUpdateReference(b *testing.B) { benchUpdate(b, true) }
