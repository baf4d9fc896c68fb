package query

import (
	"fmt"
	"slices"
	"strings"
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

// checkPartition holds a partition of records under sample bound n to its
// definition: the bucket of every dictionary value — the missing label
// included — is Sample of the HasValue filter of the input, in the input's
// order (the whole filter when n ≤ 0).
func checkPartition(t *testing.T, e *Engine, records []int32, side Side, attr string, n int) {
	t.Helper()
	p, err := e.Partition(records, side, attr, n)
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
		want = Sample(nil, want, n)
		label := tab.Dict(a).Value(dataset.ValueID(v))
		got, err := p.Bucket(label)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s.%s=%q over %v, bound %d: bucket %v, sampled HasValue filter %v", side, attr, label, records, n, got, want)
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
			for _, n := range []int{0, 1, 3, 7} {
				checkPartition(t, e, g.Records, pa.side, pa.attr, n)
			}
			if base.BindsAttr(pa.side, pa.attr) {
				continue
			}
			p, err := e.Partition(g.Records, pa.side, pa.attr, 0)
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
	if _, err := e.Partition(nil, ItemSide, "nope", 0); err == nil {
		t.Fatal("unknown attribute must be an error")
	}
}

// TestSamplePositions pins Sample to the stride rule candidates have always
// been scored by: the i-th of n picks is records[int(float64(i)*step)] with
// step = len/n computed first — the positions the workload goldens' sampled
// utilities were recorded with. Computing i·len first and dividing after
// picks differently: of 2 002 records, pick 1 000 would be position 1 001,
// and of 30, with n = 22, pick 11 would be 15, not 14.
func TestSamplePositions(t *testing.T) {
	for _, size := range []int{0, 1, 5, 30, 64, 1999, 2000, 2001, 2002, 4096, 50_021} {
		records := make([]int32, size)
		for i := range records {
			records[i] = int32(3*i + 1)
		}
		for _, n := range []int{-1, 0, 1, 2, 7, 22, 2000, 4095} {
			got := Sample(nil, records, n)
			if n <= 0 || size <= n {
				if !slices.Equal(got, records) {
					t.Fatalf("Sample of %d records, n=%d: not the records themselves", size, n)
				}
				continue
			}
			want := make([]int32, 0, n)
			step := float64(size) / float64(n)
			for i := 0; i < n; i++ {
				want = append(want, records[int(float64(i)*step)])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Sample of %d records, n=%d: picks differ from the stride rule", size, n)
			}
		}
	}
}

// TestSampleWritesIntoTheCallersBuffer: Sample writes its picks into dst's
// array whenever it holds n — whatever dst's length, and without an
// allocation — replaces an array that is too small, and leaves dst alone
// when it hands records back. The picks are the same in every case.
func TestSampleWritesIntoTheCallersBuffer(t *testing.T) {
	for _, n := range []int{1, 7, 200, 2000} {
		buf := append(make([]int32, 0, n), -7)
		for count := n; count <= 3*n+5; count++ {
			records := make([]int32, count)
			for i := range records {
				records[i] = int32(3*i + 1)
			}
			got := Sample(buf, records, n)
			if want := Sample(nil, records, n); !slices.Equal(got, want) {
				t.Fatalf("n = %d, %d records: into a buffer %v, fresh %v", n, count, got, want)
			}
			switch {
			case count == n && &got[0] != &records[0]:
				t.Fatalf("n = %d: %d records are not handed back as they are", n, count)
			case count == n && buf[0] != -7:
				t.Fatalf("n = %d: handing records back wrote %d into dst", n, buf[0])
			case count > n && &got[0] != &buf[:1][0]:
				t.Fatalf("n = %d, %d records: the sample is not in dst's array", n, count)
			}
		}
		records := make([]int32, 2*n+1)
		if allocs := testing.AllocsPerRun(10, func() { Sample(buf, records, n) }); allocs != 0 {
			t.Fatalf("n = %d: sampling into a buffer that holds n allocates %v times", n, allocs)
		}
		if small := make([]int32, 0, n-1); n > 1 && &Sample(small, records, n)[0] == &small[:1][0] {
			t.Fatalf("n = %d: a buffer of capacity %d was written past its end", n, n-1)
		}
	}
}

// FuzzPartition partitions arbitrary ascending record subsets by every
// attribute kind, under a sample bound. subset is a bit mask over the
// rating table (bit i of byte i/8 admits record i); attr picks the
// attribute (attr mod 4) and the bound (attr div 4; 0 keeps buckets whole),
// so the checked-in corpus keeps its two-value form. Every bucket must be
// Sample of the unbounded bucket.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, byte(2))
	f.Add([]byte{0x01}, byte(1))
	f.Add([]byte{0xaa, 0x55, 0x00, 0xf0}, byte(3))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}, byte(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, byte(3*4+2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, byte(5*4+0))
	f.Add([]byte{0xfe, 0x7f, 0xff, 0xee, 0xff, 0xff, 0xdf, 0xff}, byte(7*4+3))
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
		checkPartition(t, e, records, pa.side, pa.attr, int(attr)/len(partitionAttrs))
	})
}

// TestKeysMatchSprintf pins the concatenated keys to the Sprintf formats they
// were first written with: the keys are map identities (candidate dedup, the
// group and accumulator caches), so their bytes may not move. The one
// change since is that a part holding a separator byte has it escaped,
// which esc spells out on its own; a part without one is itself.
func TestKeysMatchSprintf(t *testing.T) {
	esc := strings.NewReplacer("\x03", "\x033", "\x00", "\x030", "\x01", "\x031", "\x02", "\x032").Replace
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
		if got, want := s.Key(), fmt.Sprintf("%d\x00%s\x00%s", s.Side, esc(s.Attr), esc(s.Value)); got != want {
			t.Errorf("Selector.Key = %q, want %q", got, want)
		}
		if got, want := s.AttrKey(), fmt.Sprintf("%d\x00%s", s.Side, esc(s.Attr)); got != want {
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
			want += fmt.Sprintf("%d\x00%s\x00%s", s.Side, esc(s.Attr), esc(s.Value))
		}
		if got := d.Key(); got != want {
			t.Errorf("Description.Key of %d selectors = %q, want %q", n, got, want)
		}
	}
}
