package query_test

// Tests and benchmarks of the query engine on generated datasets. They live
// in the external test package because internal/gen imports internal/query.

import (
	"math"
	"os"
	"path/filepath"
	"slices"
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

func rev(attr, value string) query.Selector {
	return query.Selector{Side: query.ReviewerSide, Attr: attr, Value: value}
}

func item(attr, value string) query.Selector {
	return query.Selector{Side: query.ItemSide, Attr: attr, Value: value}
}

// materializeArm is one group shape of BenchmarkMaterialize: a selection,
// the share of the rating table the index walk visits for it (which is
// what chooses the strategy; checked to ±0.01) and the share it keeps.
type materializeArm struct {
	name          string
	sels          []query.Selector
	visited, kept float64
}

// BenchmarkMaterialize is the inner loop of a cold step's first half: one
// uncached materialization (the group cache is off unless
// EnableGroupCache is called) per group shape, on the three dataset shapes
// at full scale, each shape collected three ways: as materialize chooses
// (chosen), by the index walk (index) and by the table sweep (sweep). The
// index and sweep arms are the measurement behind sweepCrossover in
// group.go; the tiny ones are there because the walk's record bitmap and
// the sweep cost the same whatever the group's size.
//
// Yelp (200 500 ratings, 150 318 reviewers, 93 items) is the shape the
// sweep is for: any reviewer selector leaves every item in play, so the
// walk — from the side with fewer entities, the items — visits the whole
// table and keeps a fraction. Hotels (35 912; 15 493 reviewers, 879 hotels)
// is the same shape with ten times the items. On MovieLens (100 000; 943
// reviewers, 1 682 films) both sides are short and either may be walked: a
// reviewer selection visits exactly what it keeps, and the sweep runs only
// for a selection past the crossover on its own (gender=M, 55% of the
// table) or an item selection matching more films than there are
// reviewers, which is walked from all 943 reviewers (language=english).
//
//	go test ./internal/query -run '^$' -bench Materialize -benchmem
func BenchmarkMaterialize(b *testing.B) {
	for _, ds := range []struct {
		name string
		arms []materializeArm
	}{
		{"yelp", []materializeArm{
			{"root", nil, 1, 1},
			// Fewer reviewers than items: the only Yelp arm walked
			// from the reviewer index.
			{"tiny3_reviewer_walk", []query.Selector{rev("state", "MA"), rev("city", "Newark"), rev("membership", "elite")}, 0, 0},
			{"tiny2", []query.Selector{rev("state", "MA"), item("cuisine", "indian")}, 0.21, 0.01},
			{"reviewer1", []query.Selector{rev("state", "NY")}, 1, 0.60},
			{"reviewer1_narrow", []query.Selector{rev("city", "Newark")}, 1, 0.05},
			{"reviewer2", []query.Selector{rev("age_group", "adult"), rev("social_activity", "lurker")}, 1, 0.07},
			{"item1_03", []query.Selector{item("open_since", "2006")}, 0.03, 0.03},
			{"item1_21", []query.Selector{item("cuisine", "indian")}, 0.21, 0.21},
			{"item1_33", []query.Selector{item("alcohol", "full_bar")}, 0.33, 0.33},
			{"item1_43", []query.Selector{item("price_range", "$$")}, 0.43, 0.43},
			{"item1_56", []query.Selector{item("parking", "no")}, 0.56, 0.56},
			{"item1_69", []query.Selector{item("attire", "casual")}, 0.69, 0.69},
			{"both_31", []query.Selector{rev("age_group", "adult"), item("price_range", "$$$")}, 0.31, 0.09},
			{"both_42", []query.Selector{rev("social_activity", "casual"), item("outdoor_seating", "yes")}, 0.42, 0.10},
			{"both_52", []query.Selector{rev("age_group", "adult"), item("reservations", "yes")}, 0.52, 0.14},
			{"big2", []query.Selector{rev("state", "NY"), item("attire", "casual")}, 0.69, 0.41},
		}},
		{"movielens", []materializeArm{
			{"root", nil, 1, 1},
			{"tiny2", []query.Selector{rev("city", "city_8"), item("genre", "fantasy")}, 0.03, 0},
			{"reviewer1_04", []query.Selector{rev("occupation", "doctor")}, 0.04, 0.04},
			{"reviewer1_55", []query.Selector{rev("gender", "M")}, 0.55, 0.55},
			{"item1_25", []query.Selector{item("length_class", "long")}, 0.25, 0.25},
			{"item1_33", []query.Selector{item("decade", "1980s")}, 0.33, 0.33},
			// 1 177 films match, more than there are reviewers: walked
			// from every reviewer.
			{"item1_wide", []query.Selector{item("language", "english")}, 1, 0.70},
			{"both_55", []query.Selector{rev("gender", "M"), item("language", "english")}, 0.55, 0.39},
		}},
		{"hotels", []materializeArm{
			{"root", nil, 1, 1},
			{"tiny1", []query.Selector{item("city", "hcity_16")}, 0.01, 0.01},
			{"reviewer1", []query.Selector{rev("traveler_type", "family")}, 1, 0.20},
			{"reviewer1_narrow", []query.Selector{rev("loyalty_tier", "platinum")}, 0.05, 0.05},
			{"item1_30", []query.Selector{item("star_class", "4")}, 0.30, 0.30},
			{"item1_41", []query.Selector{item("amenity", "parking")}, 0.41, 0.41},
			{"item1_46", []query.Selector{item("amenity", "pool")}, 0.46, 0.46},
			{"both_43", []query.Selector{rev("age_group", "middle_aged"), item("amenity", "shuttle")}, 0.43, 0.12},
		}},
	} {
		b.Run(ds.name, func(b *testing.B) {
			db, err := gen.ByName(ds.name, gen.Config{Scale: 1})
			if err != nil {
				b.Fatal(err)
			}
			e, err := query.NewEngine(db)
			if err != nil {
				b.Fatal(err)
			}
			for _, arm := range ds.arms {
				b.Run(arm.name, func(b *testing.B) { benchMaterializeArm(b, e, arm) })
			}
		})
	}
}

func benchMaterializeArm(b *testing.B, e *query.Engine, arm materializeArm) {
	desc := query.MustDescription(arm.sels...)
	table := float64(e.DB.Ratings.Len())
	visits, chosen, err := e.WalkVisits(desc)
	if err != nil {
		b.Fatal(err)
	}
	g, err := e.Materialize(desc)
	if err != nil {
		b.Fatal(err)
	}
	visited, kept := float64(visits)/table, float64(g.Len())/table
	if math.Abs(visited-arm.visited) > 0.01 || math.Abs(kept-arm.kept) > 0.01 {
		b.Fatalf("%s: the walk visits %.3f of the table and keeps %.3f, the arm says %.2f and %.2f", desc, visited, kept, arm.visited, arm.kept)
	}
	swept := 0.0
	if chosen == query.Sweep {
		swept = 1
	}
	for _, way := range []struct {
		name        string
		materialize func() (*query.RatingGroup, error)
	}{
		{"chosen", func() (*query.RatingGroup, error) { return e.Materialize(desc) }},
		{"index", func() (*query.RatingGroup, error) { return e.MaterializeWith(desc, query.Index) }},
		{"sweep", func() (*query.RatingGroup, error) { return e.MaterializeWith(desc, query.Sweep) }},
	} {
		b.Run(way.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkGroup, _ = way.materialize()
			}
			if sinkGroup.Len() != g.Len() {
				b.Fatalf("%s: %d records, Materialize has %d", desc, sinkGroup.Len(), g.Len())
			}
			b.ReportMetric(float64(g.Len()), "records")
			b.ReportMetric(visited, "visited")
			if way.name == "chosen" && len(arm.sels) > 0 { // the root takes neither path
				b.ReportMetric(swept, "swept")
			}
		})
	}
}

// TestDescriptionKeysTellCellsApart: a cell may hold the bytes a key
// separates its fields with. Loaded from CSV, a value that spells out a
// second selector must still name its own group in the group cache — not
// the conjunction its bytes imitate — and the two descriptions must not
// compare equal.
func TestDescriptionKeysTellCellsApart(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"reviewers.csv": "_key,a,b\nu1,x\x010\x00b\x00y,z\nu2,x,y\nu3,x,z\n",
		"items.csv":     "_key,c\ni1,q\ni2,q\n",
		"ratings.csv":   "_reviewer,_item,overall:5\nu1,i1,1\nu2,i1,2\nu2,i2,3\nu3,i1,4\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := dataset.LoadDir(dir, "keys", nil)
	if err != nil {
		t.Fatal(err)
	}
	odd := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "a", Value: "x\x010\x00b\x00y"})
	pair := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "a", Value: "x"},
		query.Selector{Side: query.ReviewerSide, Attr: "b", Value: "y"})
	if odd.Equal(pair) || odd.Key() == pair.Key() {
		t.Errorf("%q and %q compare equal", odd, pair)
	}
	cached, err := query.NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	cached.EnableGroupCache(1 << 20)
	for _, d := range []query.Description{odd, pair} {
		got, _, err := cached.MaterializeCached(d)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := query.NewEngine(db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Materialize(d)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Records, want.Records) {
			t.Errorf("%q through the group cache holds records %v, want %v", d, got.Records, want.Records)
		}
	}
}
