package ratingmap

// The accumulator addresses candidates by position: parts[i] is the partial
// of Keys()[i], a group lists its candidates' positions, and the engine
// scores and snapshots by position. These tests hold that alignment through
// everything that moves positions — Remove, Merge of unknown keys, decoded
// frames — and hold scoring by position to scoring by key and to the
// materialized scorer.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// assertAligned checks every positional invariant of an accumulator, and
// that its candidates score and snapshot by position exactly as by key.
func assertAligned(t *testing.T, acc *Accumulator, seen *SeenSet, label string) {
	t.Helper()
	keys := acc.Keys()
	if len(acc.parts) != len(keys) {
		t.Fatalf("%s: %d partials for %d keys", label, len(acc.parts), len(keys))
	}
	grouped := make([]int, len(keys)) // how many groups list position i
	for gi, g := range acc.groups {
		if len(g.members) == 0 {
			t.Fatalf("%s: group %d has no members", label, gi)
		}
		for _, i := range g.members {
			if int(i) >= len(keys) {
				t.Fatalf("%s: group %d lists position %d of %d", label, gi, i, len(keys))
			}
			grouped[i]++
			if tbl, ai := schemaIndex(acc.db, keys[i]); tbl != g.t || ai != g.ai {
				t.Fatalf("%s: group %d (attribute %d) lists %v", label, gi, g.ai, keys[i])
			}
		}
	}
	for i, k := range keys {
		p := &acc.parts[i]
		if p.key != k {
			t.Fatalf("%s: parts[%d] is %v, Keys()[%d] is %v", label, i, p.key, i, k)
		}
		tbl, ai := schemaIndex(acc.db, k)
		cells := 0
		if ai >= 0 {
			cells = tbl.Dict(ai).Len() * (p.scale + 1)
		}
		if (ai >= 0) != (grouped[i] == 1) || grouped[i] > 1 {
			t.Fatalf("%s: %v (attribute %d of its schema) is listed by %d groups", label, k, ai, grouped[i])
		}
		if len(p.hist) != cells {
			t.Fatalf("%s: %v has a block of %d cells, want %d", label, k, len(p.hist), cells)
		}
		at, byKey := acc.SnapshotAt(i), acc.Snapshot(k)
		if at.Key != k || at.Digest() != byKey.Digest() {
			t.Fatalf("%s: SnapshotAt(%d) = %s, Snapshot(%v) = %s", label, i, at.Digest(), k, byKey.Digest())
		}
		for _, m := range []PeculiarityMeasure{PecTVD, PecKL} {
			got := acc.ScoresAt(i, seen, 1.5, m, nil)
			if est, ok := acc.CriteriaEstimateOpt(k, seen, 1.5, m); !ok || est != got {
				t.Fatalf("%s: %v under %s: ScoresAt(%d) = %v, CriteriaEstimateOpt = %v (ok=%t)", label, k, m, i, got, est, ok)
			}
			// The materialized scorer adds the subgroups up in display
			// order, the estimator in value order: equal to rounding. (A
			// map with no bars estimates to all zeros; materialized, its
			// agreement is 1.)
			if at.NumSubgroups() == 0 {
				continue
			}
			exact := ComputeScoresOpt(at, seen, 1.5, m)
			for c := range got {
				if math.Abs(got[c]-exact[c]) > 1e-9 {
					t.Fatalf("%s: %v under %s: %s estimated %v, materialized %v", label, k, m, Criterion(c), got[c], exact[c])
				}
			}
		}
	}
}

// schemaIndex resolves a candidate's attribute the slow way.
func schemaIndex(db *dataset.DB, k Key) (*dataset.EntityTable, int) {
	t := db.Items
	if k.Side == query.ReviewerSide {
		t = db.Reviewers
	}
	return t, t.Schema.Index(k.Attr)
}

// alignmentDB is past both of ScoresAt's stack buffers: dimension "wide"
// has a scale of 20 (> stackScale) and every item a city of its own, 80 bars
// (> stackBars). Reviewer tags are multi-valued.
func alignmentDB(t *testing.T) (*dataset.DB, []Key) {
	t.Helper()
	reviewers := dataset.NewEntityTable("reviewers", dataset.MustSchema(
		dataset.Attribute{Name: "g"}, dataset.Attribute{Name: "tags", Kind: dataset.MultiValued}))
	items := dataset.NewEntityTable("items", dataset.MustSchema(dataset.Attribute{Name: "city"}))
	for u := 0; u < 7; u++ {
		tags := []string{fmt.Sprintf("t%d", u%3), fmt.Sprintf("t%d", 3+u%2)}
		if _, err := reviewers.AppendRow(fmt.Sprintf("u%d", u),
			map[string]string{"g": []string{"F", "M", ""}[u%3]}, map[string][]string{"tags": tags[:u%3]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		if _, err := items.AppendRow(fmt.Sprintf("i%d", i), map[string]string{"city": fmt.Sprintf("c%d", i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := dataset.NewRatingTable(dataset.Dimension{Name: "wide", Scale: 20}, dataset.Dimension{Name: "narrow", Scale: 3})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 400; r++ {
		if err := rt.Append(r%7, (r*13)%80, []dataset.Score{dataset.Score((r * 7) % 21), dataset.Score(r % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	db := dataset.NewDB("alignment", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for _, a := range []Key{{Side: query.ReviewerSide, Attr: "g"}, {Side: query.ReviewerSide, Attr: "tags"},
		{Side: query.ItemSide, Attr: "city"}, {Side: query.ItemSide, Attr: "no_such_attribute"}} {
		for dim := range rt.Dimensions {
			keys = append(keys, Key{Side: a.Side, Attr: a.Attr, Dim: dim})
		}
	}
	return db, keys
}

// TestAccumulatorIndexAlignment drives random accumulators — shuffled key
// subsets on either scan path — through scans, random Remove sequences, a
// wire round trip and a Merge that brings unknown keys, checking the
// alignment after every move and every candidate's histogram against a
// one-candidate reference accumulator fed the same records.
func TestAccumulatorIndexAlignment(t *testing.T) {
	db, all := alignmentDB(t)
	rng := rand.New(rand.NewSource(19))
	seen := NewSeenSet()
	for _, rm := range (&Builder{DB: db}).Build(query.Description{}, allRecords(db), all[:4]) {
		seen.Add(rm)
	}
	subset := func() []Key {
		ks := append([]Key(nil), all...)
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		return ks[:1+rng.Intn(len(ks))]
	}
	batch := func() []int32 {
		records := make([]int32, rng.Intn(120))
		for i := range records {
			records[i] = int32(rng.Intn(db.Ratings.Len()))
		}
		return records
	}
	for round := 0; round < 60; round++ {
		b := &Builder{DB: db}
		acc := b.NewAccumulator(query.Description{}, subset())
		update := (*Accumulator).Update // odd rounds align the reference scan
		if round%2 == 1 {
			update = (*Accumulator).updateReference
		}
		model := make(map[Key]*Accumulator) // each live candidate on its own
		feed := func(keys []Key, records []int32) {
			for _, k := range keys {
				if model[k] == nil {
					model[k] = b.NewAccumulator(query.Description{}, []Key{k})
				}
				model[k].updateReference(records)
			}
		}
		check := func(label string) {
			t.Helper()
			label = fmt.Sprintf("round %d, %s", round, label)
			assertAligned(t, acc, seen, label)
			for i, k := range acc.Keys() {
				if got, want := acc.SnapshotAt(i).Digest(), model[k].SnapshotAt(0).Digest(); got != want {
					t.Fatalf("%s: position %d holds %s, %v alone accumulated %s", label, i, got, k, want)
				}
			}
		}
		scan := func(label string) {
			t.Helper()
			records := batch()
			update(acc, records)
			feed(acc.Keys(), records)
			check(label)
		}
		scan("first scan")
		for len(acc.Keys()) > 1 && rng.Intn(4) > 0 {
			k := acc.Keys()[rng.Intn(len(acc.Keys()))]
			acc.Remove(k)
			delete(model, k)
			acc.Remove(Key{Side: query.ItemSide, Attr: "city", Dim: 7}) // unknown: nothing moves
			scan(fmt.Sprintf("after Remove(%v)", k))
		}

		for _, k := range all[len(all)-2:] { // a frame cannot name an attribute outside the schema
			acc.Remove(k)
			delete(model, k)
		}
		dec, err := b.DecodeWire(query.Description{}, acc.EncodeWire())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assertAligned(t, dec, seen, fmt.Sprintf("round %d, decoded", round))
		for i := range acc.Keys() {
			if got, want := dec.ScoresAt(i, seen, 1, PecKL, nil), acc.ScoresAt(i, seen, 1, PecKL, nil); got != want {
				t.Fatalf("round %d: decoded candidate %d scores %v, encoded %v", round, i, got, want)
			}
		}

		other := b.NewAccumulator(query.Description{}, subset())
		records := batch()
		update(other, records)
		acc = dec // merge into the decoded one: registered key by key, not slab-built
		acc.Merge(other)
		feed(other.Keys(), records)
		check("after Merge")
		scan("scan after Merge")
	}
}

// TestScoringAndSnapshotAllocations: scoring a candidate allocates nothing
// under either measure, through a memo or without one, while its scale and
// bar count fit ScoresAt's stack buffers, and a snapshot is three allocations (the map, the subgroup list,
// one array for every histogram) whatever the bar count.
func TestScoringAndSnapshotAllocations(t *testing.T) {
	seen := NewSeenSet()
	for name, fixture := range map[string]func() (*dataset.DB, []Key){
		"fuzz fixture":           func() (*dataset.DB, []Key) { return fuzzFixture(t) },
		"80 bars, a scale of 20": func() (*dataset.DB, []Key) { return alignmentDB(t) },
	} {
		db, keys := fixture()
		acc := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
		acc.Update(allRecords(db))
		seen.Add(acc.SnapshotAt(0))
		for i, k := range keys {
			p := &acc.parts[i]
			bars := 0
			p.rows(func(dataset.ValueID, []int32, int) { bars++ })
			if n := testing.AllocsPerRun(20, func() { acc.SnapshotAt(i) }); n != 3 && !(bars == 0 && n == 2) {
				t.Errorf("%s: SnapshotAt(%v) with %d bars allocates %v times, want 3", name, k, bars, n)
			}
			if p.scale > stackScale || bars > stackBars {
				continue
			}
			for _, m := range []PeculiarityMeasure{PecTVD, PecKL} {
				var memo PecMemo
				for _, pm := range []*PecMemo{nil, &memo} {
					if n := testing.AllocsPerRun(20, func() { acc.ScoresAt(i, seen, 1, m, pm) }); n != 0 {
						t.Errorf("%s: ScoresAt(%v) under %s (memo: %t) allocates %v times, want 0", name, k, m, pm != nil, n)
					}
				}
			}
		}
	}
}
