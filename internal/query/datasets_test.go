package query_test

// Tests and benchmarks of the query engine on generated datasets. They live
// in the external test package because internal/gen imports internal/query.

import (
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/query"
)

// TestSelectorBitsetIsHasValueFilter holds the entity set of every
// ⟨attribute, value⟩ selector — built from the frozen flat AttrColumn — to
// the row-oriented HasValue filter it replaces, on every generated dataset
// shape: atomic and multi-valued attributes, the missing label included.
// The two are separate copies of the data once frozen, which is where PR
// 15's kernel-vs-reference disagreement lived.
func TestSelectorBitsetIsHasValueFilter(t *testing.T) {
	for _, ds := range []struct {
		name  string
		scale float64
	}{{"demo", 1}, {"yelp", 0.05}, {"movielens", 1}, {"hotels", 1}} {
		db, err := gen.ByName(ds.name, gen.Config{Scale: ds.scale})
		if err != nil {
			t.Fatal(err)
		}
		e, err := query.NewEngine(db)
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for _, side := range []query.Side{query.ReviewerSide, query.ItemSide} {
			tab := db.Reviewers
			if side == query.ItemSide {
				tab = db.Items
			}
			for a := 0; a < tab.Schema.Len(); a++ {
				attr := tab.Schema.At(a).Name
				for v := 0; v < tab.Dict(a).Len(); v++ {
					label := tab.Dict(a).Value(dataset.ValueID(v))
					d := query.MustDescription(query.Selector{Side: side, Attr: attr, Value: label})
					got, err := e.EntityGroup(d, side)
					if err != nil {
						t.Fatal(err)
					}
					for row := 0; row < tab.Len(); row++ {
						if want := tab.HasValue(a, row, dataset.ValueID(v)); got.Has(row) != want {
							t.Fatalf("%s %s: row %d in bitset = %v, HasValue = %v", ds.name, d, row, got.Has(row), want)
						}
					}
					pairs++
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no ⟨attribute, value⟩ pair checked", ds.name)
		}
	}
}

var sinkGroup *query.RatingGroup

// BenchmarkMaterialize is the one-second inner loop of a cold step's first
// half: one uncached materialization (the group cache is off unless
// EnableGroupCache is called) per group shape on Yelp at scale 0.25
// (50 125 ratings, 37 580 reviewers, 23 items). The arms span the sizes a
// gather meets; the two narrow ones are there because the record bitmap
// costs the same whatever the group's size.
//
//	go test ./internal/query -run '^$' -bench Materialize -benchmem
func BenchmarkMaterialize(b *testing.B) {
	db, err := gen.Yelp(gen.Config{Scale: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	e, err := query.NewEngine(db)
	if err != nil {
		b.Fatal(err)
	}
	rev := func(attr, value string) query.Selector {
		return query.Selector{Side: query.ReviewerSide, Attr: attr, Value: value}
	}
	item := func(attr, value string) query.Selector {
		return query.Selector{Side: query.ItemSide, Attr: attr, Value: value}
	}
	for _, arm := range []struct {
		name     string
		desc     query.Description
		min, max int // the group size the arm's name promises
	}{
		{"root", query.MustDescription(), 50125, 50125},
		// Fewer reviewers than items: the only arm gathered from the
		// reviewer index.
		{"tiny3_reviewer_walk", query.MustDescription(rev("state", "MA"), rev("city", "Newark"), rev("membership", "elite")), 1, 10},
		{"tiny2", query.MustDescription(rev("state", "MA"), item("cuisine", "indian")), 1, 100},
		{"reviewer1", query.MustDescription(rev("state", "NY")), 25000, 35000},
		{"item1", query.MustDescription(item("noise_level", "loud")), 15000, 25000},
		{"big2", query.MustDescription(rev("state", "NY"), item("attire", "casual")), 10000, 50125},
	} {
		b.Run(arm.name, func(b *testing.B) {
			g, err := e.Materialize(arm.desc)
			if err != nil {
				b.Fatal(err)
			}
			if g.Len() < arm.min || g.Len() > arm.max {
				b.Fatalf("%s has %d records, the arm wants %d..%d", arm.desc, g.Len(), arm.min, arm.max)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkGroup, _ = e.Materialize(arm.desc)
			}
			b.ReportMetric(float64(g.Len()), "records")
		})
	}
}
