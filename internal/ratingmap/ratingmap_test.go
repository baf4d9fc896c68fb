package ratingmap

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"subdex/internal/dataset"
	"subdex/internal/dataset/datasettest"
	"subdex/internal/gen"
	"subdex/internal/query"
)

// fixtureDB builds a database with known groupings: 2 reviewer attributes,
// 2 item attributes (one multi-valued), 2 rating dimensions.
func fixtureDB(t testing.TB) *dataset.DB {
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"})
	is, _ := dataset.NewSchema(
		dataset.Attribute{Name: "city"},
		dataset.Attribute{Name: "tag", Kind: dataset.MultiValued})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	reviewers.AppendRow("u1", map[string]string{"gender": "F"}, nil)
	reviewers.AppendRow("u2", map[string]string{"gender": "M"}, nil)
	items.AppendRow("i1", map[string]string{"city": "A"}, map[string][]string{"tag": {"x", "y"}})
	items.AppendRow("i2", map[string]string{"city": "B"}, map[string][]string{"tag": {"x"}})
	rt, _ := dataset.NewRatingTable(
		dataset.Dimension{Name: "overall", Scale: 5},
		dataset.Dimension{Name: "food", Scale: 5})
	// records: (u, i, overall, food)
	recs := [][4]int{
		{0, 0, 5, 4}, {0, 1, 3, 3}, {1, 0, 1, 2}, {1, 1, 2, 5}, {0, 0, 4, 4},
	}
	for _, r := range recs {
		rt.Append(r[0], r[1], []dataset.Score{dataset.Score(r[2]), dataset.Score(r[3])})
	}
	db := dataset.NewDB("fix", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func allRecords(db *dataset.DB) []int32 {
	rs := make([]int32, db.Ratings.Len())
	for i := range rs {
		rs[i] = int32(i)
	}
	return rs
}

// TestNoMissingValueBar: the missing value is never a bar. partial.rows
// starts at row 1, so no map the Builder produces — for any attribute of
// either side, on any dimension, over a database with blank cells — has a
// subgroup for dataset.MissingValue, and code that reads a map's bars
// never checks for one.
func TestNoMissingValueBar(t *testing.T) {
	gdb, err := gen.Hotels(gen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	db := datasettest.WithMissingCells(t, gdb, 0.2, 1)
	var keys []Key
	for side, table := range []*dataset.EntityTable{db.Reviewers, db.Items} {
		schema := table.Schema
		for a := 0; a < schema.Len(); a++ {
			for d := range db.Ratings.Dimensions {
				keys = append(keys, Key{Side: query.Side(side), Attr: schema.At(a).Name, Dim: d})
			}
		}
	}
	bars := 0
	for _, rm := range (&Builder{DB: db}).Build(query.Description{}, allRecords(db), keys) {
		for _, sg := range rm.Subgroups {
			if sg.Value == dataset.MissingValue {
				t.Errorf("%v has a bar for the missing value (%d records)", rm.Key, sg.N)
			}
		}
		bars += len(rm.Subgroups)
	}
	if bars == 0 {
		t.Fatalf("%d maps with no bars at all", len(keys))
	}
}

func TestBuilderGroupByAtomic(t *testing.T) {
	db := fixtureDB(t)
	b := Builder{DB: db}
	maps := b.Build(query.Description{}, allRecords(db), []Key{
		{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
	})
	rm := maps[0]
	if rm.NumSubgroups() != 2 {
		t.Fatalf("subgroups = %d, want 2", rm.NumSubgroups())
	}
	if rm.TotalRecords != 5 {
		t.Fatalf("TotalRecords = %d, want 5", rm.TotalRecords)
	}
	// F: overall scores 5,3,4 → avg 4; M: 1,2 → avg 1.5. Sorted descending.
	if got := rm.Subgroups[0].AvgScore(); !almost(got, 4) {
		t.Errorf("top bar avg = %v, want 4", got)
	}
	if got := rm.Subgroups[1].AvgScore(); !almost(got, 1.5) {
		t.Errorf("bottom bar avg = %v, want 1.5", got)
	}
	if rm.Subgroups[0].N != 3 || rm.Subgroups[1].N != 2 {
		t.Errorf("bar sizes = %d,%d", rm.Subgroups[0].N, rm.Subgroups[1].N)
	}
}

func TestBuilderMultiValuedCountsPerValue(t *testing.T) {
	db := fixtureDB(t)
	b := Builder{DB: db}
	maps := b.Build(query.Description{}, allRecords(db), []Key{
		{Side: query.ItemSide, Attr: "tag", Dim: 0},
	})
	rm := maps[0]
	// i1 has tags x,y (3 records); i2 has tag x (2 records).
	// tag x: all 5 records; tag y: i1's 3 records. Total with multiplicity 8.
	if rm.TotalRecords != 8 {
		t.Fatalf("TotalRecords = %d, want 8 (multi-valued multiplicity)", rm.TotalRecords)
	}
	var nx, ny int
	dict := db.Items.DictByName("tag")
	for _, sg := range rm.Subgroups {
		switch dict.Value(sg.Value) {
		case "x":
			nx = sg.N
		case "y":
			ny = sg.N
		}
	}
	if nx != 5 || ny != 3 {
		t.Errorf("x=%d y=%d, want 5 and 3", nx, ny)
	}
}

func TestBuilderSkipsMissingScores(t *testing.T) {
	db := fixtureDB(t)
	// Zero a score (missing) and rebuild.
	db.Ratings.Scores[0][0] = 0
	b := Builder{DB: db}
	maps := b.Build(query.Description{}, allRecords(db), []Key{
		{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
	})
	if maps[0].TotalRecords != 4 {
		t.Fatalf("missing score must be excluded: total = %d", maps[0].TotalRecords)
	}
}

func TestAccumulatorPhasedEqualsSinglePass(t *testing.T) {
	db := fixtureDB(t)
	b := Builder{DB: db}
	keys := []Key{
		{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
		{Side: query.ItemSide, Attr: "city", Dim: 1},
		{Side: query.ItemSide, Attr: "tag", Dim: 0},
	}
	recs := allRecords(db)
	single := b.Build(query.Description{}, recs, keys)

	acc := b.NewAccumulator(query.Description{}, keys)
	for i := 0; i < len(recs); i++ { // one record per phase
		acc.Update(recs[i : i+1])
	}
	for i, k := range keys {
		phased := acc.Snapshot(k)
		if phased.TotalRecords != single[i].TotalRecords ||
			phased.NumSubgroups() != single[i].NumSubgroups() {
			t.Fatalf("key %v: phased %d/%d vs single %d/%d", k,
				phased.TotalRecords, phased.NumSubgroups(),
				single[i].TotalRecords, single[i].NumSubgroups())
		}
	}
}

func TestAccumulatorRemove(t *testing.T) {
	db := fixtureDB(t)
	b := Builder{DB: db}
	keys := []Key{
		{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
		{Side: query.ReviewerSide, Attr: "gender", Dim: 1},
	}
	acc := b.NewAccumulator(query.Description{}, keys)
	acc.Remove(keys[0])
	if len(acc.Keys()) != 1 {
		t.Fatalf("Keys after remove = %v", acc.Keys())
	}
	acc.Update(allRecords(db))
	if rm := acc.Snapshot(keys[0]); rm != nil {
		t.Fatal("removed key must not snapshot")
	}
	if rm := acc.Snapshot(keys[1]); rm == nil || rm.TotalRecords == 0 {
		t.Fatal("surviving key must keep accumulating")
	}
}

// TestNewAccumulatorSlab holds the slab-built accumulator to one built the
// plain way — a block of its own per candidate, registered key by key —
// over a key order that interleaves the attributes, through scans, a
// pruning Remove and the wire encoding. Every block's capacity is its
// length: an append to one can never write into the next.
func TestNewAccumulatorSlab(t *testing.T) {
	db := fixtureDB(t)
	b := Builder{DB: db}
	keys := []Key{
		{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
		{Side: query.ItemSide, Attr: "city", Dim: 0},
		{Side: query.ItemSide, Attr: "city", Dim: 1},
		{Side: query.ReviewerSide, Attr: "gender", Dim: 1},
		{Side: query.ItemSide, Attr: "tag", Dim: 1},
		{Side: query.ItemSide, Attr: "no_such_attribute", Dim: 0},
		{Side: query.ItemSide, Attr: "tag", Dim: 0},
	}
	slab := b.NewAccumulator(query.Description{}, keys)
	plain := b.emptyAccumulator(query.Description{})
	for _, k := range keys {
		plain.register(k)
	}
	if !slices.Equal(slab.Keys(), keys) {
		t.Fatalf("Keys = %v, want the order given", slab.Keys())
	}
	for _, k := range keys {
		i := slab.index(k)
		if i < 0 {
			t.Fatalf("%v not registered", k)
		}
		p := &slab.parts[i]
		if want := len(plain.parts[plain.index(k)].hist); len(p.hist) != want || cap(p.hist) != want {
			t.Fatalf("%v: block len %d cap %d, want both %d", k, len(p.hist), cap(p.hist), want)
		}
	}
	check := func(label string) {
		t.Helper()
		assertAccEqual(t, slab, plain, keys, label)
		if !bytes.Equal(slab.EncodeWire(), plain.EncodeWire()) {
			t.Fatalf("%s: wire frames differ", label)
		}
	}
	records := allRecords(db)
	slab.Update(records[:3])
	plain.Update(records[:3])
	check("first scan")
	slab.Remove(keys[1])
	plain.Remove(keys[1])
	slab.Update(records[3:])
	plain.Update(records[3:])
	check("after Remove")
}

func TestSignatureDistinguishesGroupings(t *testing.T) {
	db := fixtureDB(t)
	b := Builder{DB: db}
	maps := b.Build(query.Description{}, allRecords(db), []Key{
		{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
		{Side: query.ItemSide, Attr: "city", Dim: 0},
	})
	// Pooled distributions are identical (same records, same dimension)…
	d0, d1 := maps[0].Distribution(), maps[1].Distribution()
	for i := range d0 {
		if !almost(d0[i], d1[i]) {
			t.Fatalf("pooled distributions should match: %v vs %v", d0, d1)
		}
	}
	// …but signatures differ because the groupings differ.
	s0, s1 := maps[0].AppendSignature(nil), maps[1].AppendSignature(nil)
	same := true
	for i := range s0 {
		if !almost(s0[i], s1[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("signatures should differ across groupings")
	}
}

func TestSignatureIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rm := randomRatingMap(r)
		sig := rm.AppendSignature(nil)
		sum := 0.0
		for _, v := range sig {
			if v < -1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// randomRatingMap fabricates a map with random bars for property tests.
func randomRatingMap(r *rand.Rand) *RatingMap {
	scale := 5
	rm := &RatingMap{Scale: scale, total: make([]int, scale)}
	bars := 1 + r.Intn(8)
	for b := 0; b < bars; b++ {
		counts := make([]int, scale)
		n := 0
		for s := 0; s < scale; s++ {
			counts[s] = r.Intn(20)
			n += counts[s]
			rm.total[s] += counts[s]
		}
		if n == 0 {
			counts[0] = 1
			n = 1
			rm.total[0]++
		}
		rm.Subgroups = append(rm.Subgroups, Subgroup{Value: dataset.ValueID(b + 1), Counts: counts, N: n})
		rm.TotalRecords += n
	}
	return rm
}

func TestRenderContainsBars(t *testing.T) {
	db := fixtureDB(t)
	b := Builder{DB: db}
	maps := b.Build(query.Description{}, allRecords(db), []Key{
		{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
	})
	out := maps[0].Render(db.Reviewers.DictByName("gender"))
	for _, want := range []string{"gender", "F", "M", "rating distribution", "avg. score"} {
		if !contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSharingCombinesAggregatesPerAttribute(t *testing.T) {
	// The "Combining Multiple Aggregates" optimization (§4.2.1): candidates
	// that group by the same attribute on different dimensions must share
	// one scan. With 2 attributes × 2 dimensions = 4 candidates over N
	// records, the accumulator performs 2·N record visits, not 4·N.
	db := fixtureDB(t)
	b := Builder{DB: db}
	keys := []Key{
		{Side: query.ReviewerSide, Attr: "gender", Dim: 0},
		{Side: query.ReviewerSide, Attr: "gender", Dim: 1},
		{Side: query.ItemSide, Attr: "city", Dim: 0},
		{Side: query.ItemSide, Attr: "city", Dim: 1},
	}
	acc := b.NewAccumulator(query.Description{}, keys)
	recs := allRecords(db)
	acc.Update(recs)
	if got, want := acc.RecordVisits(), 2*len(recs); got != want {
		t.Fatalf("record visits = %d, want %d (shared per attribute)", got, want)
	}
	// Removing one dimension of an attribute keeps the shared scan; removing
	// both removes it.
	acc2 := b.NewAccumulator(query.Description{}, keys)
	acc2.Remove(keys[0])
	acc2.Update(recs)
	if got, want := acc2.RecordVisits(), 2*len(recs); got != want {
		t.Fatalf("after removing one dim: visits = %d, want %d", got, want)
	}
	acc3 := b.NewAccumulator(query.Description{}, keys)
	acc3.Remove(keys[0])
	acc3.Remove(keys[1])
	acc3.Update(recs)
	if got, want := acc3.RecordVisits(), len(recs); got != want {
		t.Fatalf("after removing an attribute entirely: visits = %d, want %d", got, want)
	}
}
