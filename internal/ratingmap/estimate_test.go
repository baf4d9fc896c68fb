package ratingmap

// Tests for PecMemo (estimate.go): scoring with a memo is scoring without
// one, bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// sameBits compares two score vectors as bit patterns: == would let a NaN
// or a signed zero through.
func sameBits(a, b Scores) bool {
	for c := range a {
		if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
			return false
		}
	}
	return true
}

// pooledCounts renders a candidate's pooled histogram, the memo's key.
func pooledCounts(p *partial) string {
	pooled := make([]int, p.scale)
	p.rows(func(_ dataset.ValueID, counts []int32, _ int) {
		for s, c := range counts {
			pooled[s] += int(c)
		}
	})
	return fmt.Sprint(pooled)
}

// TestPecMemoIsExact is the seeded property: over random accumulators on
// two databases — one with missing values (row 0), missing scores (column
// 0), multi-valued attributes and two scales; one with a scale above
// stackScale, which the memo must pass by — every candidate scores the same
// bits through a memo as without one. One memo serves every accumulator of
// a (seen set, measure) pair, empty batches included, so it meets more
// distinct pooled histograms than it holds and evicts; each candidate is
// scored through it twice, so hits and re-computations after eviction both
// occur. The seen set is nil, empty, and a history of both dimensions.
func TestPecMemoIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, fx := range []struct {
		name    string
		fixture func() (*dataset.DB, []Key)
	}{
		{"missing values, missing scores, multi-valued", func() (*dataset.DB, []Key) { return shapedDB(t, 40, 70, 3_000) }},
		{"a scale of 20", func() (*dataset.DB, []Key) { return alignmentDB(t) }},
	} {
		name := fx.name
		db, keys := fx.fixture()
		b := &Builder{DB: db}
		history := NewSeenSet()
		for _, rm := range b.Build(query.Description{}, allRecords(db)[:300], keys[:6]) {
			history.Add(rm)
		}
		for seenIdx, seen := range []*SeenSet{nil, NewSeenSet(), history} { // nil, empty, a history
			for _, m := range []PeculiarityMeasure{PecTVD, PecKL} {
				var memo PecMemo
				distinct := make(map[string]bool)
				for round := 0; round < 30; round++ {
					records := make([]int32, rng.Intn(200))
					for i := range records {
						records[i] = int32(rng.Intn(db.Ratings.Len()))
					}
					acc := b.NewAccumulator(query.Description{}, keys)
					acc.Update(records)
					recordScale := 1 + rng.Float64()
					for pass := 0; pass < 2; pass++ {
						for i, k := range acc.Keys() {
							got := acc.ScoresAt(i, seen, recordScale, m, &memo)
							want := acc.ScoresAt(i, seen, recordScale, m, nil)
							if !sameBits(got, want) {
								t.Fatalf("%s, seen set %d, %v, round %d, %v: %v through the memo, %v without", name, seenIdx, m, round, k, got, want)
							}
							if p := &acc.parts[i]; p.scale <= stackScale {
								distinct[pooledCounts(p)] = true
							}
						}
					}
				}
				if db.Name == "shaped" && len(distinct) <= pecMemoSize {
					t.Fatalf("%s: the memo met %d distinct pooled histograms and holds %d: nothing was evicted", name, len(distinct), pecMemoSize)
				}
			}
		}
	}
}

// TestPecMemoKeysOnCountsNotTotals: two dimensions pool to the same total
// from different counts; a memo that told them apart by less than every
// count would hand one the other's global peculiarity. A poisoned slot then
// shows a second look at the same counts is answered from the memo at all.
func TestPecMemoKeysOnCountsNotTotals(t *testing.T) {
	reviewers := dataset.NewEntityTable("reviewers", dataset.MustSchema(dataset.Attribute{Name: "g"}))
	items := dataset.NewEntityTable("items", dataset.MustSchema(dataset.Attribute{Name: "city"}))
	for _, tbl := range []*dataset.EntityTable{reviewers, items} {
		attr := tbl.Schema.At(0).Name
		if _, err := tbl.AppendRow("e", map[string]string{attr: "x"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := dataset.NewRatingTable(dataset.Dimension{Name: "a", Scale: 3}, dataset.Dimension{Name: "b", Scale: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, scores := range [][]dataset.Score{{1, 1}, {1, 2}, {2, 3}} { // a pools to 2,1,0 and b to 1,1,1
		if err := rt.Append(0, 0, scores); err != nil {
			t.Fatal(err)
		}
	}
	db := dataset.NewDB("totals", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	keys := []Key{{Side: query.ReviewerSide, Attr: "g", Dim: 0}, {Side: query.ReviewerSide, Attr: "g", Dim: 1}}
	acc := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
	acc.Update(allRecords(db))
	seen := NewSeenSet()
	seen.AddDist(0, []float64{1, 0, 0})

	var memo PecMemo
	a := acc.ScoresAt(0, seen, 1, PecTVD, &memo)
	b := acc.ScoresAt(1, seen, 1, PecTVD, &memo)
	if a[PecGlobal] == b[PecGlobal] {
		t.Fatalf("both dimensions score global peculiarity %v: the fixture no longer separates them", a[PecGlobal])
	}
	for i := range keys {
		if got, want := acc.ScoresAt(i, seen, 1, PecTVD, &memo), acc.ScoresAt(i, seen, 1, PecTVD, nil); !sameBits(got, want) {
			t.Fatalf("%v: %v through the memo, %v without", keys[i], got, want)
		}
	}
	if memo.n != 2 {
		t.Fatalf("the memo holds %d histograms after two distinct ones, want 2", memo.n)
	}
	memo.pec[0] = 0.125
	if got := acc.ScoresAt(0, seen, 1, PecTVD, &memo)[PecGlobal]; got != 0.125 {
		t.Fatalf("a known histogram scored %v, not what its slot holds: the memo is not consulted", got)
	}
}
