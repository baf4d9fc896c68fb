package query

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"subdex/internal/dataset"
)

// materializeShape sizes one database of buildMaterializeDB.
type materializeShape struct{ reviewers, items, ratings int }

// materializeShapes are the databases FuzzMaterialize draws from: either
// side may have the fewer entities, and the rating tables end on a partial
// word of their record bitmaps (40, 60 and 16 records).
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

// checkMaterialize holds a description's records to the naive filter over
// the rating table: the naive filter's records, strictly ascending, in a
// slice with no spare capacity.
func checkMaterialize(t *testing.T, e *Engine, d Description) {
	t.Helper()
	want := naiveMaterialize(e.DB, d)
	g, err := e.Materialize(d)
	if err != nil {
		t.Fatalf("%s: %v", d, err)
	}
	if !slices.Equal(g.Records, want) {
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
}

// FuzzMaterialize holds Materialize (checkMaterialize) to the naive filter
// over the rating table on arbitrary descriptions: shape picks the
// database, and each byte pair of picks binds one attribute (first binding
// of an attribute wins) to one of its registered values, the missing label
// included.
func FuzzMaterialize(f *testing.F) {
	f.Add(byte(0), []byte{})                       // the root
	f.Add(byte(4), []byte{0, 1})                   // one reviewer value, items unconstrained: 578 of 2 000 records
	f.Add(byte(5), []byte{2, 1})                   // one item value, reviewers unconstrained: 308 records
	f.Add(byte(2), []byte{0, 0, 1, 0})             // the missing label of a set: no reviewer matches
	f.Add(byte(4), []byte{1, 1, 2, 2, 3, 1})       // both multi-valued attributes and an atomic value: 5 records
	f.Add(byte(5), []byte{1, 3, 2, 1, 3, 3})       // likewise on the other shape: 6 records
	f.Add(byte(5), []byte{1, 1, 2, 3, 3, 1})       // likewise: 10 records
	f.Add(byte(3), []byte{1, 3, 2, 0, 3, 2})       // the atomic missing label among three selectors: 2 records
	f.Add(byte(1), []byte{0, 1, 0, 2, 2, 2, 3, 1}) // an attribute picked twice: the first binding wins
	f.Add(byte(4), []byte{0, 1, 3, 2})             // an atomic and a multi-valued value: 289 of 2 000 records
	f.Add(byte(2), []byte{1, 3, 3, 5})             // a multi-valued value on each side: 182 of 700 records
	f.Add(byte(0), []byte{0, 1, 2, 0})             // the atomic missing label on a table of one partial word: 8 records
	f.Add(byte(0), []byte{1, 3, 2, 0})             // both sides match entities, no record joins them: an empty set
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

// TestConcurrentFirstBuilds has two goroutines per value of an attribute
// materialize that value on a fresh engine at the same moment, one of the
// two asking for the selector's record set first. Each must get the naive
// filter's records, and each selector's sets must be installed once: both
// goroutines end up with the record set the engine keeps.
func TestConcurrentFirstBuilds(t *testing.T) {
	db := buildMaterializeDB(t, 7, materializeShape{400, 20, 20000})
	for _, ma := range materializeAttrs {
		e, err := NewEngine(db)
		if err != nil {
			t.Fatal(err)
		}
		tab := e.table(ma.side)
		a := tab.Schema.Index(ma.attr)
		n := tab.Dict(a).Len()
		descs := make([]Description, n)
		for v := range descs {
			descs[v] = MustDescription(sel(ma.side, ma.attr, tab.Dict(a).Value(dataset.ValueID(v))))
		}
		groups := make([]*RatingGroup, 2*n)
		errs := make([]error, 2*n)
		sets := make([]*Bitset, 2*n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for j := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := selKey{ma.side, a, dataset.ValueID(j / 2)}
				<-start
				if j%2 == 0 {
					sets[j] = e.recordSet(k)
				}
				groups[j], errs[j] = e.Materialize(descs[j/2])
				if j%2 == 1 {
					sets[j] = e.recordSet(k)
				}
			}()
		}
		close(start)
		wg.Wait()
		for j := range groups {
			d := descs[j/2]
			if errs[j] != nil {
				t.Fatalf("%s: %v", d, errs[j])
			}
			if want := naiveMaterialize(db, d); !slices.Equal(groups[j].Records, want) {
				t.Fatalf("%s: got %v, naive filter %v", d, groups[j].Records, want)
			}
			if kept := e.records[selKey{ma.side, a, dataset.ValueID(j / 2)}]; sets[j] != kept {
				t.Errorf("%s: the goroutine got a record set the engine does not keep", d)
			}
		}
		if len(e.records) != n || len(e.entities) != n {
			t.Fatalf("%s.%s: the engine holds %d record sets and %d entity sets, want %d of each",
				ma.side, ma.attr, len(e.records), len(e.entities), n)
		}
	}
}

// TestSelectorMemory materializes one value of a key-like attribute, one
// distinct value per reviewer, and holds the bytes the step allocates to a
// small multiple of one selector's sets and one group: what the caches keep
// must grow with the values selected, not with the attribute's dictionary
// (4 096 values here, 65 535 allowed). EntityGroup builds no record set.
func TestSelectorMemory(t *testing.T) {
	const reviewers, ratings = 4096, 16384
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "handle"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "city"})
	rev := dataset.NewEntityTable("reviewers", rs)
	for u := 0; u < reviewers; u++ {
		rev.AppendRow(fmt.Sprintf("u%d", u), map[string]string{"handle": fmt.Sprintf("h%d", u)}, nil)
	}
	items := dataset.NewEntityTable("items", is)
	items.AppendRow("i0", map[string]string{"city": "NYC"}, nil)
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	for r := 0; r < ratings; r++ {
		rt.Append(r%reviewers, 0, []dataset.Score{1})
	}
	db := dataset.NewDB("handles", rev, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}

	// One selector's entity and record sets, a group's two entity bitsets
	// and four records, and the caches' map entries come to about 4 KB.
	// The bound leaves room for growth and is a 150th of the 10 MB that
	// sets for every value of the attribute would take.
	const bound = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := e.Materialize(MustDescription(sel(ReviewerSide, "handle", "h9")))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != ratings/reviewers {
		t.Fatalf("h9 has %d records, want %d", g.Len(), ratings/reviewers)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("materializing one selector allocated %d bytes, want at most %d", got, bound)
	}

	if _, err := e.EntityGroup(MustDescription(sel(ReviewerSide, "handle", "h7")), ReviewerSide); err != nil {
		t.Fatal(err)
	}
	if len(e.records) != 1 {
		t.Errorf("EntityGroup built a record set: the engine holds %d, want h9's alone", len(e.records))
	}
}
