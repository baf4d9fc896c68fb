package query

import (
	"fmt"
	"slices"
	"testing"

	"subdex/internal/dataset"
)

// buildPartitionDB is a database with every shape a partition must get
// right: an atomic attribute with missing values, a multi-valued attribute
// whose cells hold zero, one and several values, and entities rated many
// times, once and never.
func buildPartitionDB(t testing.TB) *dataset.DB {
	t.Helper()
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"}, dataset.Attribute{Name: "age_group"})
	is, _ := dataset.NewSchema(
		dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued},
		dataset.Attribute{Name: "city"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	genders := []string{"F", "M", "", "F", "M", "X", ""}
	ages := []string{"young", "", "middle", "old", "young", "young", ""}
	for i := range genders {
		reviewers.AppendRow(fmt.Sprintf("u%d", i), map[string]string{"gender": genders[i], "age_group": ages[i]}, nil)
	}
	cuisines := [][]string{{"pizza", "italian"}, nil, {"sushi"}, {"sushi", "japanese", "bbq"}, {"pizza"}, nil}
	cities := []string{"NYC", "Austin", "", "NYC", "Detroit", ""}
	for i := range cuisines {
		items.AppendRow(fmt.Sprintf("r%d", i), map[string]string{"city": cities[i]},
			map[string][]string{"cuisine": cuisines[i]})
	}
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	for r := 0; r < 64; r++ {
		// Reviewer 6 and item 5 never rate; the rest mix unevenly.
		rt.Append((r*5+r/7)%6, (r*3+r/5)%5, []dataset.Score{dataset.Score(r%5 + 1)})
	}
	db := dataset.NewDB("p", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

var partitionAttrs = []struct {
	side Side
	attr string
}{{ReviewerSide, "gender"}, {ReviewerSide, "age_group"}, {ItemSide, "cuisine"}, {ItemSide, "city"}}

// checkPartition holds a partition of records to its definition: the bucket
// of every dictionary value — the missing label included — is the HasValue
// filter of the input, in the input's order.
func checkPartition(t *testing.T, e *Engine, records []int32, side Side, attr string) {
	t.Helper()
	p, err := e.Partition(records, side, attr)
	if err != nil {
		t.Fatal(err)
	}
	tab := e.table(side)
	a := tab.Schema.Index(attr)
	rowOf := e.DB.Ratings.Reviewer
	if side == ItemSide {
		rowOf = e.DB.Ratings.Item
	}
	total := 0
	for v := 0; v < tab.Dict(a).Len(); v++ {
		var want []int32
		for _, r := range records {
			if tab.HasValue(a, int(rowOf[r]), dataset.ValueID(v)) {
				want = append(want, r)
			}
		}
		label := tab.Dict(a).Value(dataset.ValueID(v))
		got, err := p.Bucket(label)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s.%s=%q over %v: bucket %v, HasValue filter %v", side, attr, label, records, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s.%s=%q: bucket of %d records has capacity %d — an append would write its neighbour",
				side, attr, label, len(got), cap(got))
		}
		total += len(got)
	}
	if p.Len() != total {
		t.Fatalf("%s.%s: Len = %d, buckets hold %d", side, attr, p.Len(), total)
	}
	if _, err := p.Bucket("no such value"); err == nil {
		t.Fatalf("%s.%s: an unregistered value must be an error, as it is for Materialize", side, attr)
	}
}

// TestPartitionIsMaterialize pins what the Recommendation Builder relies on:
// bucket v of a group's partition by an unbound attribute is the group
// Materialize returns for the description with ⟨attr, v⟩ added.
func TestPartitionIsMaterialize(t *testing.T) {
	e, err := NewEngine(buildPartitionDB(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []Description{
		MustDescription(),
		MustDescription(sel(ReviewerSide, "gender", "F")),
		MustDescription(sel(ItemSide, "cuisine", "sushi")),
		MustDescription(sel(ReviewerSide, "age_group", "young"), sel(ItemSide, "city", "NYC")),
		MustDescription(sel(ReviewerSide, "gender", "X"), sel(ItemSide, "city", "Detroit")), // empty
	} {
		g, err := e.Materialize(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, pa := range partitionAttrs {
			checkPartition(t, e, g.Records, pa.side, pa.attr)
			if base.BindsAttr(pa.side, pa.attr) {
				continue
			}
			p, err := e.Partition(g.Records, pa.side, pa.attr)
			if err != nil {
				t.Fatal(err)
			}
			values, _ := e.AttributeValues(pa.side, pa.attr)
			for _, v := range append(values, dataset.MissingLabel) {
				target, err := base.With(sel(pa.side, pa.attr, v))
				if err != nil {
					t.Fatal(err)
				}
				want, err := e.Materialize(target)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := p.Bucket(v); !slices.Equal(got, want.Records) {
					t.Fatalf("%s: bucket %v, materialized %v", target, got, want.Records)
				}
			}
		}
	}
	if _, err := e.Partition(nil, ItemSide, "nope"); err == nil {
		t.Fatal("unknown attribute must be an error")
	}
}

// FuzzPartition partitions arbitrary ascending record subsets by every
// attribute kind. subset is a bit mask over the rating table (bit i of byte
// i/8 admits record i); attr picks the attribute.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, byte(2))
	f.Add([]byte{0x01}, byte(1))
	f.Add([]byte{0xaa, 0x55, 0x00, 0xf0}, byte(3))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}, byte(2))
	e, err := NewEngine(buildPartitionDB(f))
	if err != nil {
		f.Fatal(err)
	}
	n := e.DB.Ratings.Len()
	f.Fuzz(func(t *testing.T, subset []byte, attr byte) {
		var records []int32
		for r := 0; r < n && r/8 < len(subset); r++ {
			if subset[r/8]&(1<<(r%8)) != 0 {
				records = append(records, int32(r))
			}
		}
		pa := partitionAttrs[int(attr)%len(partitionAttrs)]
		checkPartition(t, e, records, pa.side, pa.attr)
	})
}

// TestKeysMatchSprintf pins the concatenated keys to the Sprintf formats they
// were first written with: the keys are map identities (candidate dedup, the
// group and accumulator caches), so their bytes may not move.
func TestKeysMatchSprintf(t *testing.T) {
	sels := []Selector{
		sel(ReviewerSide, "gender", "F"),
		sel(ItemSide, "city", "New York"),
		sel(ItemSide, "a\x00b", "v\x00\x01w"),
		sel(ReviewerSide, `quo"te`, `it's "both"`),
		sel(ItemSide, "cuisine", "crème brûlée 🦀"),
		sel(Side(7), "x", ""),
		sel(Side(-1), "%d%s", "%!s(MISSING)"),
	}
	for _, s := range sels {
		if got, want := s.Key(), fmt.Sprintf("%d\x00%s\x00%s", s.Side, s.Attr, s.Value); got != want {
			t.Errorf("Selector.Key = %q, want %q", got, want)
		}
		if got, want := s.AttrKey(), fmt.Sprintf("%d\x00%s", s.Side, s.Attr); got != want {
			t.Errorf("Selector.AttrKey = %q, want %q", got, want)
		}
	}
	for n := 0; n <= len(sels); n++ {
		d := MustDescription(sels[:n]...)
		want := ""
		for i, s := range d.Selectors() {
			if i > 0 {
				want += "\x01"
			}
			want += fmt.Sprintf("%d\x00%s\x00%s", s.Side, s.Attr, s.Value)
		}
		if got := d.Key(); got != want {
			t.Errorf("Description.Key of %d selectors = %q, want %q", n, got, want)
		}
	}
}
