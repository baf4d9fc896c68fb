package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subdex/internal/dataset"
)

func sel(side Side, attr, value string) Selector {
	return Selector{Side: side, Attr: attr, Value: value}
}

func TestNewDescriptionCanonical(t *testing.T) {
	a := sel(ReviewerSide, "gender", "F")
	b := sel(ItemSide, "city", "NYC")
	d1 := MustDescription(a, b)
	d2 := MustDescription(b, a)
	if !d1.Equal(d2) {
		t.Fatal("selector order must not matter")
	}
	if d1.Len() != 2 {
		t.Fatalf("Len = %d", d1.Len())
	}
	// Duplicates collapse.
	d3 := MustDescription(a, a, b)
	if d3.Len() != 2 {
		t.Fatalf("duplicate selector not collapsed: %d", d3.Len())
	}
}

func TestNewDescriptionRejectsConflicts(t *testing.T) {
	if _, err := NewDescription(sel(ReviewerSide, "gender", "F"), sel(ReviewerSide, "gender", "M")); err == nil {
		t.Fatal("two values for one attribute must be rejected")
	}
	if _, err := NewDescription(Selector{Side: ReviewerSide, Attr: "", Value: "x"}); err == nil {
		t.Fatal("empty attribute must be rejected")
	}
	// Same attribute name on different sides is fine.
	if _, err := NewDescription(sel(ReviewerSide, "city", "a"), sel(ItemSide, "city", "b")); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptionAlgebra(t *testing.T) {
	a := sel(ReviewerSide, "gender", "F")
	b := sel(ItemSide, "city", "NYC")
	d := MustDescription(a)

	d2, err := d.With(b)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Has(a) || !d2.Has(b) {
		t.Fatal("With lost a selector")
	}
	// With then Without round-trips.
	d3, err := d2.Without(b)
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Equal(d) {
		t.Fatalf("With∘Without ≠ identity: %s vs %s", d3, d)
	}
	// Without of an absent selector errors.
	if _, err := d.Without(b); err == nil {
		t.Fatal("removing absent selector must fail")
	}
	// Change rebinds.
	d4, err := d.WithChanged(a, "M")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d4.ValueOf(ReviewerSide, "gender"); v != "M" {
		t.Fatalf("WithChanged: got %q", v)
	}
	if _, err := d.WithChanged(b, "LA"); err == nil {
		t.Fatal("changing absent selector must fail")
	}
}

func TestDescriptionString(t *testing.T) {
	if got := MustDescription().String(); got != "TRUE" {
		t.Errorf("empty description = %q", got)
	}
	d := MustDescription(sel(ReviewerSide, "gender", "F"))
	if got := d.String(); got != "reviewers.gender='F'" {
		t.Errorf("String = %q", got)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		b.Set(i)
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
	if !b.Has(64) || b.Has(65) {
		t.Fatal("membership wrong")
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 4 {
		t.Fatal("Clear failed")
	}
	if got := b.Elements(nil); len(got) != 4 || got[0] != 0 || got[3] != 129 {
		t.Fatalf("Elements = %v", got)
	}
}

func TestBitsetFullAndTrim(t *testing.T) {
	b := FullBitset(70)
	if b.Count() != 70 {
		t.Fatalf("FullBitset count = %d, want 70", b.Count())
	}
	if b.Has(70) {
		t.Fatal("bit beyond universe set")
	}
}

func TestBitsetSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b := NewBitset(n), NewBitset(n)
		ref := make(map[int]int) // 1=a, 2=b, 3=both
		for i := 0; i < n/2+1; i++ {
			x := r.Intn(n)
			a.Set(x)
			ref[x] |= 1
			y := r.Intn(n)
			b.Set(y)
			ref[y] |= 2
		}
		inter := a.Clone()
		inter.IntersectWith(b)
		union := a.Clone()
		union.UnionWith(b)
		for x, m := range ref {
			if inter.Has(x) != (m == 3) {
				return false
			}
			if !union.Has(x) {
				return false
			}
		}
		return a.Equal(a.Clone()) && !((a.Count() != b.Count()) && a.Equal(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// buildQueryDB builds the Figure 2-style database for engine tests.
func buildQueryDB(t testing.TB) *dataset.DB {
	t.Helper()
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"}, dataset.Attribute{Name: "age_group"})
	is, _ := dataset.NewSchema(
		dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued},
		dataset.Attribute{Name: "city"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	users := []struct{ g, a string }{{"F", "middle"}, {"M", "young"}, {"F", "young"}, {"M", "middle"}}
	for i, u := range users {
		reviewers.AppendRow("u"+string(rune('1'+i)), map[string]string{"gender": u.g, "age_group": u.a}, nil)
	}
	its := []struct {
		cs   []string
		city string
	}{
		{[]string{"burgers", "bbq"}, "Charlotte"},
		{[]string{"japanese", "sushi"}, "Austin"},
		{[]string{"mexican"}, "Detroit"},
		{[]string{"pizza", "italian"}, "NYC"},
	}
	for i, it := range its {
		items.AppendRow("r"+string(rune('1'+i)), map[string]string{"city": it.city},
			map[string][]string{"cuisine": it.cs})
	}
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	// (reviewer, item, score)
	recs := [][3]int{{0, 3, 4}, {0, 1, 5}, {1, 0, 4}, {1, 1, 3}, {2, 3, 5}, {3, 2, 2}, {2, 1, 1}}
	for _, r := range recs {
		rt.Append(r[0], r[1], []dataset.Score{dataset.Score(r[2])})
	}
	db := dataset.NewDB("q", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEngineValidate(t *testing.T) {
	e, err := NewEngine(buildQueryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(MustDescription(sel(ReviewerSide, "gender", "F"))); err != nil {
		t.Error(err)
	}
	if err := e.Validate(MustDescription(sel(ReviewerSide, "nope", "F"))); err == nil {
		t.Error("unknown attribute must fail validation")
	}
	if err := e.Validate(MustDescription(sel(ReviewerSide, "gender", "X"))); err == nil {
		t.Error("unknown value must fail validation")
	}
}

func TestEngineRequiresFrozen(t *testing.T) {
	db := buildQueryDB(t)
	raw := dataset.NewDB("unfrozen", db.Reviewers, db.Items, db.Ratings)
	if _, err := NewEngine(raw); err == nil {
		t.Fatal("unfrozen database must be rejected")
	}
}

// naiveMaterialize recomputes a rating group by brute force for comparison.
func naiveMaterialize(db *dataset.DB, d Description) []int32 {
	match := func(t *dataset.EntityTable, side Side, row int) bool {
		for _, s := range d.SideSelectors(side) {
			a := t.Schema.Index(s.Attr)
			v, ok := t.Dict(a).Lookup(s.Value)
			if !ok || !t.HasValue(a, row, v) {
				return false
			}
		}
		return true
	}
	var out []int32
	for r := 0; r < db.Ratings.Len(); r++ {
		if match(db.Reviewers, ReviewerSide, int(db.Ratings.Reviewer[r])) &&
			match(db.Items, ItemSide, int(db.Ratings.Item[r])) {
			out = append(out, int32(r))
		}
	}
	return out
}

func TestMaterializeMatchesNaive(t *testing.T) {
	db := buildQueryDB(t)
	e, _ := NewEngine(db)
	descs := []Description{
		MustDescription(),
		MustDescription(sel(ReviewerSide, "gender", "F")),
		MustDescription(sel(ItemSide, "city", "NYC")),
		MustDescription(sel(ReviewerSide, "gender", "F"), sel(ItemSide, "city", "NYC")),
		MustDescription(sel(ItemSide, "cuisine", "sushi")),
		MustDescription(sel(ReviewerSide, "age_group", "young"), sel(ItemSide, "cuisine", "japanese")),
	}
	for _, d := range descs {
		g, err := e.Materialize(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		want := naiveMaterialize(db, d)
		if len(g.Records) != len(want) {
			t.Fatalf("%s: got %v, want %v", d, g.Records, want)
		}
		for i := range want {
			if g.Records[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", d, g.Records, want)
			}
		}
	}
}

func TestMaterializeEmptyGroup(t *testing.T) {
	db := buildQueryDB(t)
	e, _ := NewEngine(db)
	// F reviewers on Detroit items: no record (only u4/M rated Detroit).
	g, err := e.Materialize(MustDescription(
		sel(ReviewerSide, "gender", "F"), sel(ItemSide, "city", "Detroit")))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Fatalf("expected empty group, got %d records", g.Len())
	}
}

func TestGroupingCandidatesExcludeBound(t *testing.T) {
	db := buildQueryDB(t)
	e, _ := NewEngine(db)
	all := e.GroupingCandidates(MustDescription())
	if len(all) != 4 {
		t.Fatalf("expected 4 grouping candidates, got %v", all)
	}
	bound := e.GroupingCandidates(MustDescription(sel(ReviewerSide, "gender", "F")))
	if len(bound) != 3 {
		t.Fatalf("bound attribute must be excluded: got %v", bound)
	}
}

func TestAttributeValues(t *testing.T) {
	db := buildQueryDB(t)
	e, _ := NewEngine(db)
	vs, err := e.AttributeValues(ItemSide, "city")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 4 {
		t.Fatalf("cities = %v", vs)
	}
	if _, err := e.AttributeValues(ItemSide, "nope"); err == nil {
		t.Fatal("unknown attribute must error")
	}
}

func TestGroupCache(t *testing.T) {
	db := buildQueryDB(t)
	e, _ := NewEngine(db)
	e.EnableGroupCache(1000)
	d := MustDescription(sel(ReviewerSide, "gender", "F"))
	g1, err := e.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("second materialization must be served from the cache")
	}
	// Different description: different group.
	g3, _ := e.Materialize(MustDescription(sel(ItemSide, "city", "NYC")))
	if g3 == g1 {
		t.Fatal("cache must key by description")
	}
	// Disabling clears.
	e.EnableGroupCache(0)
	g4, _ := e.Materialize(d)
	if g4 == g1 {
		t.Fatal("disabled cache must re-materialize")
	}
}

func TestGroupCacheEviction(t *testing.T) {
	db := buildQueryDB(t)
	e, _ := NewEngine(db)
	// Every group holds two one-word bitsets (16 bytes) beside 4 bytes a
	// record. A budget of 40 bytes: the root group (7 records, 44 bytes)
	// must never cache; gender F (4 records, 32 bytes) and gender M (3
	// records, 28 bytes) fit one at a time, so they evict each other.
	e.EnableGroupCache(40)
	root, _ := e.Materialize(MustDescription())
	again, _ := e.Materialize(MustDescription())
	if root == again {
		t.Fatal("over-budget group must not be cached")
	}
	dF := MustDescription(sel(ReviewerSide, "gender", "F"))
	a, _ := e.Materialize(dF)
	b, _ := e.Materialize(dF)
	if a != b {
		t.Fatal("small group should be cached")
	}
	// A second small group evicts the first.
	dM := MustDescription(sel(ReviewerSide, "gender", "M"))
	e.Materialize(dM)
	c, _ := e.Materialize(dF)
	if c == a {
		t.Fatal("LRU eviction expected after budget overflow")
	}
}

func TestGroupCacheCorrectness(t *testing.T) {
	db := buildQueryDB(t)
	cached, _ := NewEngine(db)
	cached.EnableGroupCache(100000)
	plain, _ := NewEngine(db)
	descs := []Description{
		MustDescription(),
		MustDescription(sel(ReviewerSide, "gender", "F")),
		MustDescription(sel(ItemSide, "cuisine", "sushi")),
		MustDescription(sel(ReviewerSide, "gender", "F")), // repeat
	}
	for _, d := range descs {
		a, err := cached.Materialize(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Materialize(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Records) != len(b.Records) {
			t.Fatalf("%s: cached %d vs plain %d records", d, len(a.Records), len(b.Records))
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				t.Fatalf("%s: record divergence", d)
			}
		}
	}
}
