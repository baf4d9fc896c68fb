package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"subdex/internal/dataset"
)

// materializeShape sizes one database of buildMaterializeDB.
type materializeShape struct{ reviewers, items, ratings int }

// materializeShapes are the databases FuzzMaterialize draws from. The
// entity counts decide which side the index walk takes (the one with fewer
// matching entities) and with it how much of the table the walk visits —
// with 20 items under 400 reviewers any reviewer selector visits all of it
// and is swept instead; the rating counts sit on both sides of the gather's
// switch from a sorted list to a bitmap — a 40-rating table has a one-word
// bitmap and no list at all, a 2 000-rating one lists its first eight
// records — and leave the sweep a last word of 40, 60 and 16 records.
var materializeShapes = []materializeShape{
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
func buildMaterializeDB(t testing.TB, seed int64, s materializeShape) *dataset.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
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
	db := dataset.NewDB(fmt.Sprintf("m%dx%dx%d", s.reviewers, s.items, s.ratings), reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkMaterialize holds a description's records collected three ways — as
// Materialize chooses, by the index walk and by the table sweep — to the
// naive filter over the rating table: the naive filter's records, strictly
// ascending, in a slice with no spare capacity. It returns how many there
// are.
func checkMaterialize(t *testing.T, e *Engine, d Description) int {
	t.Helper()
	want := naiveMaterialize(e.DB, d)
	g, err := e.Materialize(d)
	if err != nil {
		t.Fatalf("%s: %v", d, err)
	}
	index, err := e.MaterializeWith(d, Index)
	if err != nil {
		t.Fatalf("%s: %v", d, err)
	}
	sweep, err := e.MaterializeWith(d, Sweep)
	if err != nil {
		t.Fatalf("%s: %v", d, err)
	}
	for _, c := range []struct {
		way     string
		records []int32
	}{{"chosen", g.Records}, {"index", index.Records}, {"sweep", sweep.Records}} {
		if !slices.Equal(c.records, want) {
			t.Fatalf("%s on %s, %s: got %v, naive filter %v", d, e.DB.Name, c.way, c.records, want)
		}
		for k := 1; k < len(c.records); k++ {
			if c.records[k-1] >= c.records[k] {
				t.Fatalf("%s, %s: records not strictly ascending at %d: %v", d, c.way, k, c.records)
			}
		}
		if cap(c.records) != len(c.records) {
			t.Fatalf("%s, %s: %d records in a slice of capacity %d", d, c.way, len(c.records), cap(c.records))
		}
	}
	return len(want)
}

// FuzzMaterialize holds Materialize, and each of its two ways to collect
// records forced (checkMaterialize), to the naive filter over the rating
// table on arbitrary descriptions: shape picks the database, and each byte
// pair of picks binds one attribute (first binding of an attribute wins) to
// one of its registered values, the missing label included. That reaches
// the root, a side left unconstrained, selections no entity matches,
// selectors on multi-valued attributes, both walk sides, and walks on
// either side of the sweep's crossover.
func FuzzMaterialize(f *testing.F) {
	f.Add(byte(0), []byte{})                       // root
	f.Add(byte(4), []byte{0, 1})                   // items unconstrained and fewer: the walk would visit every record, swept
	f.Add(byte(5), []byte{2, 1})                   // reviewers unconstrained and fewer: swept likewise
	f.Add(byte(2), []byte{0, 0, 1, 0})             // the missing label of a set: no reviewer matches
	f.Add(byte(4), []byte{1, 1, 2, 2, 3, 1})       // 5 records of one item: stays in the list
	f.Add(byte(5), []byte{1, 3, 2, 1, 3, 3})       // 6 records of 5 reviewers: the list needs its sort
	f.Add(byte(5), []byte{1, 1, 2, 3, 3, 1})       // 10 records: outgrows the list of 8 mid-gather
	f.Add(byte(3), []byte{1, 3, 2, 0, 3, 2})       // 2 records, a list of 2, an atomic missing label
	f.Add(byte(1), []byte{0, 1, 0, 2, 2, 2, 3, 1}) // an attribute picked twice: the first binding wins
	f.Add(byte(4), []byte{0, 1, 3, 2})             // both sides constrained, 5 of 20 items hold 976 of 2 000 records: just under half, walked
	f.Add(byte(2), []byte{1, 3, 3, 5})             // both sides constrained, 4 of 9 items hold 550 of 700 records: swept
	f.Add(byte(0), []byte{0, 1, 2, 0})             // a 40-record table swept: its only word is its last
	f.Add(byte(0), []byte{1, 3, 2, 0})             // swept to nothing: 25 of 40 records visited, none of a matching reviewer
	engines := make([]*Engine, len(materializeShapes))
	for shape := range engines {
		e, err := NewEngine(buildMaterializeDB(f, int64(shape)+1, materializeShapes[shape]))
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
		checkMaterialize(t, e, MustDescription(sels...))
	})
}

// TestMaterializeStrategySwitch holds both ways to collect a group to the
// naive filter wherever the choice between them, or the sweep's word
// assembly, has an edge.
func TestMaterializeStrategySwitch(t *testing.T) {
	t.Run("last words", testMaterializeLastWords)
	t.Run("crossover", testSweepCrossover)
}

// testMaterializeLastWords runs the root, every one-selector and every
// two-sided two-selector description of databases whose rating tables end
// on every kind of last word — shorter than a word, whole words, one record
// and 63 into the next — through checkMaterialize, and counts the classes
// it must have met: a side no entity matches, one side unconstrained, both
// constrained, walks the code indexes and walks it sweeps.
func testMaterializeLastWords(t *testing.T) {
	var emptySide, oneSided, twoSided, walked, swept int
	for k, ratings := range []int{40, 63, 64, 65, 127, 128, 129, 700} {
		for _, s := range []materializeShape{{30, 6, ratings}, {6, 30, ratings}} {
			e, err := NewEngine(buildMaterializeDB(t, int64(k)+100, s))
			if err != nil {
				t.Fatal(err)
			}
			var bySide [2][]Selector
			for _, ma := range materializeAttrs {
				tab := e.table(ma.side)
				dict := tab.Dict(tab.Schema.Index(ma.attr))
				for v := 0; v < dict.Len(); v++ {
					bySide[ma.side] = append(bySide[ma.side], sel(ma.side, ma.attr, dict.Value(dataset.ValueID(v))))
				}
			}
			descs := []Description{MustDescription()}
			for _, u := range bySide[ReviewerSide] {
				descs = append(descs, MustDescription(u))
				for _, i := range bySide[ItemSide] {
					descs = append(descs, MustDescription(u, i))
				}
			}
			for _, i := range bySide[ItemSide] {
				descs = append(descs, MustDescription(i))
			}
			for _, d := range descs {
				checkMaterialize(t, e, d)
				g, err := e.entityGroups(d)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case d.IsEmpty():
				case g.Reviewers.Count() == 0 || g.Items.Count() == 0:
					emptySide++
				case len(d.SideSelectors(ReviewerSide)) == 0 || len(d.SideSelectors(ItemSide)) == 0:
					oneSided++
				default:
					twoSided++
				}
				if from, recordsOf, _, _ := e.walkSides(g.Reviewers, g.Items); e.sweepPays(from, recordsOf) {
					swept++
				} else {
					walked++
				}
			}
		}
	}
	for class, n := range map[string]int{"empty side": emptySide, "one side unconstrained": oneSided,
		"both sides constrained": twoSided, "index walk chosen": walked, "sweep chosen": swept} {
		if n == 0 {
			t.Errorf("no description of class %q was checked", class)
		}
	}
}

// crossoverDB is a database whose walks visit a known number of records: n
// ratings, the first k of item 0 (city NYC) and the rest of item 1 (Austin).
// Each rating but the last has a reviewer of its own (gender F); the last is
// the only rating of the first of three reviewers of gender X, and three
// reviewers of gender Z never rate.
func crossoverDB(t *testing.T, n, k int) *dataset.DB {
	t.Helper()
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "city"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	for u := 0; u < n+5; u++ {
		gender := "F"
		if u >= n-1 {
			gender = "X"
		}
		if u >= n+2 {
			gender = "Z"
		}
		reviewers.AppendRow(fmt.Sprintf("u%d", u), map[string]string{"gender": gender}, nil)
	}
	items.AppendRow("i0", map[string]string{"city": "NYC"}, nil)
	items.AppendRow("i1", map[string]string{"city": "Austin"}, nil)
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	for r := 0; r < n; r++ {
		i := 0
		if r >= k {
			i = 1
		}
		rt.Append(r, i, []dataset.Score{3})
	}
	db := dataset.NewDB(fmt.Sprintf("crossover%d/%d", k, n), reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// testSweepCrossover pins the choice at the boundary — a walk of exactly
// 1/sweepCrossover of the table is still made, one record more is swept —
// and the smallest sweeps: of a table the walk would visit all of, for the
// one record or none that three of its reviewers have.
func testSweepCrossover(t *testing.T) {
	const n = 128
	limit := n / sweepCrossover
	for _, c := range []struct {
		visited int
		sweep   bool
	}{{limit - 1, false}, {limit, false}, {limit + 1, true}} {
		e, err := NewEngine(crossoverDB(t, n, c.visited))
		if err != nil {
			t.Fatal(err)
		}
		d := MustDescription(sel(ItemSide, "city", "NYC"))
		if got := checkMaterialize(t, e, d); got != c.visited {
			t.Fatalf("%s on %s has %d records", d, e.DB.Name, got)
		}
		g, err := e.entityGroups(d)
		if err != nil {
			t.Fatal(err)
		}
		from, recordsOf, _, _ := e.walkSides(g.Reviewers, g.Items)
		if got := e.sweepPays(from, recordsOf); got != c.sweep {
			t.Errorf("a walk visiting %d of %d records: sweepPays = %t, want %t", c.visited, n, got, c.sweep)
		}
		for gender, want := range map[string]int{"X": 1, "Z": 0} {
			d := MustDescription(sel(ReviewerSide, "gender", gender))
			g, err := e.entityGroups(d)
			if err != nil {
				t.Fatal(err)
			}
			if from, recordsOf, _, _ := e.walkSides(g.Reviewers, g.Items); !e.sweepPays(from, recordsOf) {
				t.Errorf("%s: three reviewers against two items holding the whole table must be swept", d)
			}
			if got := checkMaterialize(t, e, d); got != want {
				t.Errorf("%s has %d records, want %d", d, got, want)
			}
		}
	}
}
