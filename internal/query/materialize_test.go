package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"subdex/internal/dataset"
)

// materializeShapes are the databases FuzzMaterialize draws from. The
// entity counts decide which side a gather walks (the one with fewer
// matching entities); the rating counts sit on both sides of the gather's
// switch from a sorted list to a bitmap — a 40-rating table has a one-word
// bitmap and no list at all, a 2 000-rating one lists its first eight
// records.
var materializeShapes = []struct{ reviewers, items, ratings int }{
	{12, 5, 40},
	{5, 12, 40},
	{150, 9, 700},
	{9, 150, 700},
	{400, 20, 2000},
	{20, 400, 2000},
}

var materializeAttrs = []struct {
	side Side
	attr string
}{{ReviewerSide, "gender"}, {ReviewerSide, "tags"}, {ItemSide, "city"}, {ItemSide, "cuisine"}}

// buildMaterializeDB draws a database of the given shape: on each side an
// atomic attribute with missing cells and a multi-valued one whose cells
// hold zero to three values, the missing label among them; entities rated
// many times, once and never.
func buildMaterializeDB(t testing.TB, shape int) *dataset.DB {
	t.Helper()
	s := materializeShapes[shape]
	rng := rand.New(rand.NewSource(int64(shape) + 1))
	set := func(values []string) []string {
		var out []string
		for _, v := range values {
			if rng.Intn(4) == 0 {
				out = append(out, v)
			}
		}
		return out
	}
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"}, dataset.Attribute{Name: "tags", Kind: dataset.MultiValued})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "city"}, dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	for u := 0; u < s.reviewers; u++ {
		reviewers.AppendRow(fmt.Sprintf("u%d", u),
			map[string]string{"gender": []string{"F", "M", "X", ""}[rng.Intn(4)]},
			map[string][]string{"tags": set([]string{"a", "b", "c", dataset.MissingLabel})})
	}
	for i := 0; i < s.items; i++ {
		items.AppendRow(fmt.Sprintf("i%d", i),
			map[string]string{"city": []string{"NYC", "Austin", "Detroit", "Reno", "", dataset.MissingLabel}[rng.Intn(6)]},
			map[string][]string{"cuisine": set([]string{"pizza", "sushi", "bbq", dataset.MissingLabel})})
	}
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	for r := 0; r < s.ratings; r++ {
		// The last entity of each side never rates; squaring the draw
		// makes the low rows prolific and leaves high ones with one rating.
		u := int(float64(s.reviewers-1) * rng.Float64() * rng.Float64())
		i := int(float64(s.items-1) * rng.Float64() * rng.Float64())
		rt.Append(u, i, []dataset.Score{dataset.Score(rng.Intn(5) + 1)})
	}
	db := dataset.NewDB(fmt.Sprintf("m%d", shape), reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// FuzzMaterialize holds Materialize to the naive filter over the rating
// table on arbitrary descriptions: shape picks the database, and each byte
// pair of picks binds one attribute (first binding of an attribute wins) to
// one of its registered values, the missing label included. That reaches
// the root, a side left unconstrained, selections no entity matches,
// selectors on multi-valued attributes, and both gather sides. The records
// must be the naive filter's — ascending, no duplicates — in a slice with
// no spare capacity.
func FuzzMaterialize(f *testing.F) {
	f.Add(byte(0), []byte{})                       // root
	f.Add(byte(4), []byte{0, 1})                   // items unconstrained and fewer: gathered from the item index
	f.Add(byte(5), []byte{2, 1})                   // reviewers unconstrained and fewer: from the reviewer index
	f.Add(byte(2), []byte{0, 0, 1, 0})             // the missing label of a set: no reviewer matches
	f.Add(byte(4), []byte{1, 1, 2, 2, 3, 1})       // 5 records of one item: stays in the list
	f.Add(byte(5), []byte{1, 3, 2, 1, 3, 3})       // 6 records of 5 reviewers: the list needs its sort
	f.Add(byte(5), []byte{1, 1, 2, 3, 3, 1})       // 10 records: outgrows the list of 8 mid-gather
	f.Add(byte(3), []byte{1, 3, 2, 0, 3, 2})       // 2 records, a list of 2, an atomic missing label
	f.Add(byte(1), []byte{0, 1, 0, 2, 2, 2, 3, 1}) // an attribute picked twice: the first binding wins
	engines := make([]*Engine, len(materializeShapes))
	for shape := range engines {
		e, err := NewEngine(buildMaterializeDB(f, shape))
		if err != nil {
			f.Fatal(err)
		}
		engines[shape] = e
	}
	f.Fuzz(func(t *testing.T, shape byte, picks []byte) {
		e := engines[int(shape)%len(engines)]
		var sels []Selector
		bound := make(map[int]bool)
		for k := 0; k+1 < len(picks); k += 2 {
			a := int(picks[k]) % len(materializeAttrs)
			if bound[a] {
				continue
			}
			bound[a] = true
			ma := materializeAttrs[a]
			tab := e.table(ma.side)
			dict := tab.Dict(tab.Schema.Index(ma.attr))
			sels = append(sels, sel(ma.side, ma.attr, dict.Value(dataset.ValueID(int(picks[k+1])%dict.Len()))))
		}
		d := MustDescription(sels...)
		g, err := e.Materialize(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if want := naiveMaterialize(e.DB, d); !slices.Equal(g.Records, want) {
			t.Fatalf("%s on %s: got %v, naive filter %v", d, e.DB.Name, g.Records, want)
		}
		for k := 1; k < len(g.Records); k++ {
			if g.Records[k-1] >= g.Records[k] {
				t.Fatalf("%s: records not strictly ascending at %d: %v", d, k, g.Records)
			}
		}
		if cap(g.Records) != len(g.Records) {
			t.Fatalf("%s: %d records in a slice of capacity %d", d, len(g.Records), cap(g.Records))
		}
	})
}
