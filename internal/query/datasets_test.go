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
	"subdex/internal/dataset/datasettest"
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

// materializeArm is one group shape of BenchmarkMaterialize: a selection
// and the share of the rating table it keeps (checked to ±0.01).
type materializeArm struct {
	name string
	sels []query.Selector
	kept float64
}

// BenchmarkMaterialize is the inner loop of a cold step's first half: one
// uncached materialization (the group cache is off unless EnableGroupCache
// is called) per group shape, on the three dataset shapes at full scale,
// with the selectors' sets already built — a selector's first use builds
// them, and a session's steps pay that once per engine. Each arm checks the
// share of the rating table its group keeps; the names are the ones
// DESIGN.md and EXPERIMENTS.md quote. Whatever a group's size, the AND reads
// ⌈|R|/64⌉ words of every selector's record set twice: narrow groups of
// several selectors (tiny3, tiny2) pay it in full.
//
// Yelp (200 500 ratings, 150 318 reviewers, 93 items) has reviewer
// selections that keep a few percent of the table and item selections that
// keep most of it; Hotels (35 912; 15 493 reviewers, 879 hotels) is the
// same shape with ten times the items; on MovieLens (100 000; 943
// reviewers, 1 682 films) both sides are short.
//
//	go test ./internal/query -run '^$' -bench Materialize -benchmem
func BenchmarkMaterialize(b *testing.B) {
	for _, ds := range []struct {
		name string
		arms []materializeArm
	}{
		{"yelp", []materializeArm{
			{"root", nil, 1},
			{"tiny3", []query.Selector{rev("state", "MA"), rev("city", "Newark"), rev("membership", "elite")}, 0},
			{"tiny2", []query.Selector{rev("state", "MA"), item("cuisine", "indian")}, 0.01},
			{"reviewer1", []query.Selector{rev("state", "NY")}, 0.60},
			{"reviewer1_narrow", []query.Selector{rev("city", "Newark")}, 0.05},
			{"reviewer2", []query.Selector{rev("age_group", "adult"), rev("social_activity", "lurker")}, 0.07},
			{"item1_03", []query.Selector{item("open_since", "2006")}, 0.03},
			{"item1_21", []query.Selector{item("cuisine", "indian")}, 0.21},
			{"item1_33", []query.Selector{item("alcohol", "full_bar")}, 0.33},
			{"item1_43", []query.Selector{item("price_range", "$$")}, 0.43},
			{"item1_56", []query.Selector{item("parking", "no")}, 0.56},
			{"item1_69", []query.Selector{item("attire", "casual")}, 0.69},
			{"both_31", []query.Selector{rev("age_group", "adult"), item("price_range", "$$$")}, 0.09},
			{"both_42", []query.Selector{rev("social_activity", "casual"), item("outdoor_seating", "yes")}, 0.10},
			{"both_52", []query.Selector{rev("age_group", "adult"), item("reservations", "yes")}, 0.14},
			{"big2", []query.Selector{rev("state", "NY"), item("attire", "casual")}, 0.41},
		}},
		{"movielens", []materializeArm{
			{"root", nil, 1},
			{"tiny2", []query.Selector{rev("city", "city_8"), item("genre", "fantasy")}, 0},
			{"reviewer1_04", []query.Selector{rev("occupation", "doctor")}, 0.04},
			{"reviewer1_55", []query.Selector{rev("gender", "M")}, 0.55},
			{"item1_25", []query.Selector{item("length_class", "long")}, 0.25},
			{"item1_33", []query.Selector{item("decade", "1980s")}, 0.33},
			{"item1_wide", []query.Selector{item("language", "english")}, 0.70},
			{"both_55", []query.Selector{rev("gender", "M"), item("language", "english")}, 0.39},
		}},
		{"hotels", []materializeArm{
			{"root", nil, 1},
			{"tiny1", []query.Selector{item("city", "hcity_16")}, 0.01},
			{"reviewer1", []query.Selector{rev("traveler_type", "family")}, 0.20},
			{"reviewer1_narrow", []query.Selector{rev("loyalty_tier", "platinum")}, 0.05},
			{"item1_30", []query.Selector{item("star_class", "4")}, 0.30},
			{"item1_41", []query.Selector{item("amenity", "parking")}, 0.41},
			{"item1_46", []query.Selector{item("amenity", "pool")}, 0.46},
			{"both_43", []query.Selector{rev("age_group", "middle_aged"), item("amenity", "shuttle")}, 0.12},
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
	g, err := e.Materialize(desc)
	if err != nil {
		b.Fatal(err)
	}
	if kept := float64(g.Len()) / float64(e.DB.Ratings.Len()); math.Abs(kept-arm.kept) > 0.01 {
		b.Fatalf("%s keeps %.3f of the table, the arm says %.2f", desc, kept, arm.kept)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkGroup, _ = e.Materialize(desc)
	}
	if sinkGroup.Len() != g.Len() {
		b.Fatalf("%s: %d records, the first Materialize had %d", desc, sinkGroup.Len(), g.Len())
	}
	b.ReportMetric(float64(g.Len()), "records")
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

// naiveRecords is the naive filter over the rating table: the records,
// ascending, whose reviewer and item hold every selector's value.
func naiveRecords(db *dataset.DB, d query.Description) []int32 {
	type test struct {
		tab *dataset.EntityTable
		of  []int32
		a   int
		v   dataset.ValueID
	}
	var tests []test
	for _, s := range d.Selectors() {
		tab, of := db.Reviewers, db.Ratings.Reviewer
		if s.Side == query.ItemSide {
			tab, of = db.Items, db.Ratings.Item
		}
		a := tab.Schema.Index(s.Attr)
		v, _ := tab.Dict(a).Lookup(s.Value)
		tests = append(tests, test{tab, of, a, v})
	}
	var out []int32
	for r := 0; r < db.Ratings.Len(); r++ {
		keep := true
		for _, c := range tests {
			keep = keep && c.tab.HasValue(c.a, int(c.of[r]), c.v)
		}
		if keep {
			out = append(out, int32(r))
		}
	}
	return out
}

// TestMissingCellsMaterialize holds Materialize and Partition to the naive
// filter on Hotels- and Yelp-shaped databases with a fifth of their atomic
// cells blank. The root's group and, on each side, the first missing label
// that keeps records are partitioned by every attribute they do not bind;
// each bucket, missing labels' included, and the group Materialize returns
// for the bucket's description must equal the naive filter.
func TestMissingCellsMaterialize(t *testing.T) {
	for _, ds := range []struct {
		name  string
		scale float64
	}{{"hotels", 0.5}, {"yelp", 0.05}} {
		gdb, err := gen.ByName(ds.name, gen.Config{Scale: ds.scale})
		if err != nil {
			t.Fatal(err)
		}
		db := datasettest.WithMissingCells(t, gdb, 0.2, 1)
		e, err := query.NewEngine(db)
		if err != nil {
			t.Fatal(err)
		}
		materialize := func(d query.Description) []int32 {
			t.Helper()
			g, err := e.Materialize(d)
			if err != nil {
				t.Fatal(err)
			}
			return g.Records
		}
		var bases []query.Description
		var seen [2]bool
		partitions := func(d query.Description) {
			t.Helper()
			records := materialize(d)
			for _, gc := range e.GroupingCandidates(d) {
				p, err := e.Partition(records, gc.Side, gc.Attr, 0)
				if err != nil {
					t.Fatal(err)
				}
				values, err := e.AttributeValues(gc.Side, gc.Attr)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range append(values, dataset.MissingLabel) {
					bucket, err := p.Bucket(v)
					if err != nil {
						t.Fatal(err)
					}
					with, err := d.With(query.Selector{Side: gc.Side, Attr: gc.Attr, Value: v})
					if err != nil {
						t.Fatal(err)
					}
					want := naiveRecords(db, with)
					if got := materialize(with); !slices.Equal(got, want) {
						t.Fatalf("%s %s: Materialize has %d records, the naive filter %d", ds.name, with, len(got), len(want))
					}
					if !slices.Equal(bucket, want) {
						t.Fatalf("%s %s: the bucket has %d records, the naive filter %d", ds.name, with, len(bucket), len(want))
					}
					if d.IsEmpty() && v == dataset.MissingLabel && len(want) > 0 && !seen[gc.Side] {
						seen[gc.Side] = true
						bases = append(bases, with)
					}
				}
			}
		}
		partitions(query.Description{})
		if !seen[query.ReviewerSide] || !seen[query.ItemSide] {
			t.Fatalf("%s: a side has no rated entity with a blank cell", ds.name)
		}
		for _, d := range bases {
			partitions(d)
		}
	}
}
