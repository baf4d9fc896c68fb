package query

import (
	"fmt"
	"slices"
	"testing"

	"subdex/internal/dataset"
)

// buildHandleDB is a database of 1 100 reviewers, each with a handle of its
// own, of whom only the first 100 rate (three items each, of eight): the
// handles of the other 1 000 are 1 000 distinct selections of an empty group.
func buildHandleDB(t testing.TB) *dataset.DB {
	t.Helper()
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "handle"}, dataset.Attribute{Name: "gender"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "city"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	for i := 0; i < 1100; i++ {
		reviewers.AppendRow(fmt.Sprintf("u%d", i), map[string]string{"handle": fmt.Sprintf("h%04d", i), "gender": []string{"F", "M"}[i%2]}, nil)
	}
	for i := 0; i < 8; i++ {
		items.AppendRow(fmt.Sprintf("r%d", i), map[string]string{"city": []string{"NYC", "Austin", "Detroit", "Reno"}[i%4]}, nil)
	}
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	for r := 0; r < 300; r++ {
		rt.Append(r/3, (r*5)%8, []dataset.Score{dataset.Score(r%5 + 1)})
	}
	db := dataset.NewDB("h", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkBudget holds the cache to its budget: every entry is charged, in
// bytes, for what it holds — a group for its records and both entity
// bitsets, a partition for its records and bucket offsets — the charges add
// up to what the cache says it uses, and that is never over the budget.
func checkBudget(t *testing.T, c *groupCache) {
	t.Helper()
	held := 0
	for key, el := range c.entries {
		en := el.Value.(*cacheEntry)
		want := 0
		if g := en.group; g != nil {
			want = 4*len(g.Records) + 8*(len(g.Reviewers.words)+len(g.Items.words))
		} else {
			want = 4*len(en.part.records) + 8*len(en.part.offsets)
		}
		if en.bytes != want {
			t.Fatalf("entry %q is charged %d bytes, holds %d", key, en.bytes, want)
		}
		held += want
	}
	if held != c.used || held > c.budget {
		t.Fatalf("the cache holds %d bytes, says it uses %d, budget %d", held, c.used, c.budget)
	}
}

// TestGroupCacheHoldsItsBudgetInBytes streams 1 000 distinct empty
// selections through the cache — each holds no record but two bitsets over
// the entity tables, which a record-count charge let grow the cache without
// bound — between groups and partitions of every size, and holds the bytes
// the cache keeps to its budget after every call. An entry larger than the
// whole budget is never admitted.
func TestGroupCacheHoldsItsBudgetInBytes(t *testing.T) {
	const budget = 1024
	e, err := NewEngine(buildHandleDB(t))
	if err != nil {
		t.Fatal(err)
	}
	e.EnableGroupCache(budget)
	c := e.groups

	root, err := e.Materialize(MustDescription())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.entries[MustDescription().Key()]; ok {
		t.Fatalf("the root group (%d records and two bitsets) is over the %d-byte budget, yet was admitted", root.Len(), budget)
	}
	if _, hit, _ := e.PartitionCached(MustDescription(), root.Records, ReviewerSide, "handle", 0); hit {
		t.Fatal("a partition by handle holds 1 101 offsets, over the budget, yet was found")
	}
	if _, hit, _ := e.PartitionCached(MustDescription(), root.Records, ReviewerSide, "handle", 0); hit {
		t.Fatal("a partition over the budget was admitted")
	}
	checkBudget(t, c)

	females := MustDescription(sel(ReviewerSide, "gender", "F"))
	empty := 0
	for i := 100; i < 1100; i++ {
		d := MustDescription(sel(ReviewerSide, "handle", fmt.Sprintf("h%04d", i)))
		g, err := e.Materialize(d)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() == 0 {
			empty++
		}
		checkBudget(t, c)
		switch i % 3 {
		case 0:
			f, err := e.Materialize(females)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.PartitionCached(females, f.Records, ItemSide, "city", 0); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, _, err := e.PartitionCached(MustDescription(), root.Records, ItemSide, "city", i%7+1); err != nil {
				t.Fatal(err)
			}
		}
		checkBudget(t, c)
	}
	if empty != 1000 {
		t.Fatalf("%d of the 1 000 handle selections were empty", empty)
	}
}

// TestPartitionCached pins the memo's key: the same source description,
// attribute and bound find the partition built first; another bound, or
// another source, builds its own; and what is found is what Partition
// builds.
func TestPartitionCached(t *testing.T) {
	e, err := NewEngine(buildPartitionDB(t))
	if err != nil {
		t.Fatal(err)
	}
	e.EnableGroupCache(1 << 20)
	src := MustDescription(sel(ReviewerSide, "gender", "F"))
	g, err := e.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	first, hit, err := e.PartitionCached(src, g.Records, ItemSide, "cuisine", 3)
	if err != nil || hit {
		t.Fatalf("first call: hit %t, err %v; want a built partition", hit, err)
	}
	again, hit, _ := e.PartitionCached(src, g.Records, ItemSide, "cuisine", 3)
	if !hit || again != first {
		t.Fatal("the same source, attribute and bound must find the partition built first")
	}
	if p, hit, _ := e.PartitionCached(src, g.Records, ItemSide, "cuisine", 0); hit || p == first {
		t.Fatal("another bound is another partition")
	}
	root, _ := e.Materialize(MustDescription())
	if p, hit, _ := e.PartitionCached(MustDescription(), root.Records, ItemSide, "cuisine", 3); hit || p == first {
		t.Fatal("another source is another partition")
	}
	want, err := e.Partition(g.Records, ItemSide, "cuisine", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first.offsets, want.offsets) || !slices.Equal(first.records, want.records) {
		t.Fatal("the cached partition differs from Partition's")
	}
	if _, _, err := e.PartitionCached(src, g.Records, ItemSide, "nope", 0); err == nil {
		t.Fatal("unknown attribute must be an error")
	}
}
