package ratingmap

// Tests for the fused columnar scan kernel (kernel.go). The exactness
// contract — accumulator state bit-identical to the row-oriented reference
// scan (reference_test.go) on every input, whichever strategy a batch
// takes — is enforced three ways: fixture-driven unit tests here, the
// engine differential harness (7500+ randomized cases plus
// kernel-adversarial families), and FuzzScanKernel below, which fuzzes the
// dataset shape itself (dictionary sizes, attribute kinds, missing values,
// scales) alongside record positions and scores.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
	"subdex/internal/ratingmap/reftest"
)

// kernelPair builds two accumulators over the same database and candidate
// set: one for Update, one for updateReference.
func kernelPair(db *dataset.DB, keys []Key) (kern, ref *Accumulator) {
	b := &Builder{DB: db}
	return b.NewAccumulator(query.Description{}, keys), b.NewAccumulator(query.Description{}, keys)
}

// assertAccEqual compares complete accumulator state: digests of every
// candidate snapshot, per-candidate record totals, and the shared-scan
// visit counter.
func assertAccEqual(t *testing.T, kern, ref *Accumulator, keys []Key, label string) {
	t.Helper()
	if g, w := accDigest(kern, keys), accDigest(ref, keys); g != w {
		t.Fatalf("%s: kernel digest diverges from reference\n got: %s\nwant: %s", label, g, w)
	}
	for _, k := range keys {
		if kern.NumRecords(k) != ref.NumRecords(k) {
			t.Fatalf("%s: NumRecords(%v) %d vs %d", label, k, kern.NumRecords(k), ref.NumRecords(k))
		}
	}
	if kern.RecordVisits() != ref.RecordVisits() {
		t.Fatalf("%s: RecordVisits %d vs %d", label, kern.RecordVisits(), ref.RecordVisits())
	}
}

// TestKernelSelection pins the strategy rule: a side is scanned
// entity-first from the batch length at which the batch outweighs the
// side's entity block by foldCrossover, decided from rows, scale and
// len(records) alone.
func TestKernelSelection(t *testing.T) {
	first := firstFoldedLen(93, 6) // Yelp's items
	for _, c := range []struct {
		rows, stride, n int
		want            bool
	}{
		{93, 6, first - 1, false},
		{93, 6, first, true},
		{93, 6, first + 1, true},
		{150_318, 6, 200_500, false}, // Yelp's reviewers: 1.3 ratings each
		{943, 6, 100_000, true},      // MovieLens, either side
		{1_682, 6, 100_000, true},
		{5, 4, 0, false},
	} {
		if got := foldPays(c.rows, c.stride, c.n); got != c.want {
			t.Errorf("foldPays(rows=%d, stride=%d, n=%d) = %t, want %t", c.rows, c.stride, c.n, got, c.want)
		}
	}
}

// TestKernelMatchesReferenceOnFixture scans the shared fixture whole, as a
// strict subset, with repeated positions, and empty — kernel and reference
// must agree bit for bit after every batch.
func TestKernelMatchesReferenceOnFixture(t *testing.T) {
	db, keys := fuzzFixture(nil)
	n := db.Ratings.Len()
	full := make([]int32, n)
	for i := range full {
		full[i] = int32(i)
	}
	cases := map[string][]int32{
		"full":     full,
		"empty":    {},
		"single":   {int32(n / 2)},
		"subset":   full[: n/3 : n/3],
		"repeats":  {0, 0, 5, 5, 5, int32(n - 1), int32(n - 1), 3},
		"reversed": {int32(n - 1), 7, 3, 1, 0},
	}
	for name, records := range cases {
		kern, ref := kernelPair(db, keys)
		kern.Update(records)
		ref.updateReference(records)
		assertAccEqual(t, kern, ref, keys, name)
	}
}

// TestKernelMultiBatchAndRemove drives the phased-engine shape: several
// Update batches with a candidate Remove in between. The kernel must stay
// exact across batches and must stop accumulating removed candidates
// exactly like the reference.
func TestKernelMultiBatchAndRemove(t *testing.T) {
	db, keys := fuzzFixture(nil)
	n := db.Ratings.Len()
	kern, ref := kernelPair(db, keys)
	batch := func(lo, hi int) []int32 {
		out := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, int32(i))
		}
		return out
	}
	kern.Update(batch(0, n/3))
	ref.updateReference(batch(0, n/3))
	kern.Remove(keys[0])
	ref.Remove(keys[0])
	kern.Update(batch(n/3, 2*n/3))
	ref.updateReference(batch(n/3, 2*n/3))
	kern.Update(batch(2*n/3, n))
	ref.updateReference(batch(2*n/3, n))
	assertAccEqual(t, kern, ref, keys[1:], "after remove + 3 batches")
	if kern.Snapshot(keys[0]) != nil {
		t.Fatal("removed candidate still has a snapshot")
	}
}

// TestUpdateAllocatesNothing pins the property that replaced the kernel's
// per-Update scratch: a candidate's block is sized when its partial is
// built, the fold borrows its entity block from a pool and the direct
// strategy joins its tiles in arrays on the stack, so a scan allocates
// nothing — for atomic and multi-valued keys alike, on a batch both sides
// fold, on one both scan directly, and on a direct one of several tiles.
func TestUpdateAllocatesNothing(t *testing.T) {
	db, keys := fuzzFixture(t)
	folded, direct := allRecords(db), allRecords(db)[:4]
	for _, tbl := range []*dataset.EntityTable{db.Reviewers, db.Items} {
		if !foldPays(tbl.Len(), 6, len(folded)) || foldPays(tbl.Len(), 6, len(direct)) {
			t.Fatalf("%s: the batches no longer sit on both sides of the crossover", tbl.Name)
		}
	}
	for name, ks := range map[string][]Key{
		"atomic": {{Side: query.ReviewerSide, Attr: "gender", Dim: 0}, {Side: query.ItemSide, Attr: "city", Dim: 1}},
		"multi":  {{Side: query.ItemSide, Attr: "tag", Dim: 0}, {Side: query.ItemSide, Attr: "tag", Dim: 1}},
		"all":    keys,
	} {
		acc := (&Builder{DB: db}).NewAccumulator(query.Description{}, ks)
		for batch, records := range map[string][]int32{"folded": folded, "direct": direct} {
			if raceEnabled && batch == "folded" {
				continue // the entity block's pool drops at random there
			}
			if n := testing.AllocsPerRun(50, func() { acc.Update(records) }); n != 0 {
				t.Errorf("%s keys, %s batch: Update allocates %v times per call, want 0", name, batch, n)
			}
		}
	}

	// The tile's scratch is the stack's, with the race detector on as well:
	// two full tiles and a partial one, on a shape neither side folds.
	wide, wideKeys := shapedDB(t, 3_000, 2_000, 2*scanTile+3)
	tiles := allRecords(wide)
	if foldPays(3_000, 6, len(tiles)) || foldPays(2_000, 6, len(tiles)) {
		t.Fatal("the several-tile batch folds: it no longer pins the tiled arm")
	}
	acc := (&Builder{DB: wide}).NewAccumulator(query.Description{}, wideKeys)
	if n := testing.AllocsPerRun(50, func() { acc.Update(tiles) }); n != 0 {
		t.Errorf("direct batch of %d records (tile %d): Update allocates %v times per call, want 0", len(tiles), scanTile, n)
	}
}

// bruteForce tallies one candidate's value → histogram with the shared
// oracle: row-oriented accessors, map bookkeeping, no block, no discard
// cells.
func bruteForce(db *dataset.DB, records []int32, k Key) map[dataset.ValueID][]int {
	return reftest.Histogram(db, k.Side, k.Attr, k.Dim, records)
}

// discardMass sums an accumulator's discard cells: row 0 and column 0 of
// every block.
func discardMass(acc *Accumulator) int {
	mass := 0
	for _, p := range acc.parts {
		for i, c := range p.hist {
			if i <= p.scale || i%(p.scale+1) == 0 {
				mass += int(c)
			}
		}
	}
	return mass
}

// TestDiscardCellsNeverLeak: the fixture has missing values and missing
// scores on every attribute, so a kernel scan fills row 0 and column 0 of
// its blocks — the same cells with the same counts under either strategy.
// No reader may see them: NumRecords, Snapshot, CriteriaEstimateOpt,
// EncodeWire and Merge must agree with the brute-force tally and with the
// reference path, whose discard cells stay empty.
func TestDiscardCellsNeverLeak(t *testing.T) {
	db, keys := fuzzFixture(t)
	records := allRecords(db)
	n := len(records)
	kern, ref := kernelPair(db, keys)
	kern.Update(records)
	ref.updateReference(records)
	if discardMass(kern) == 0 {
		t.Fatal("fixture no longer reaches the kernel's discard cells: the test is vacuous")
	}
	if m := discardMass(ref); m != 0 {
		t.Fatalf("reference path wrote %d increments into discard cells", m)
	}
	folded, direct := kernelPair(db, keys)
	folded.updateWith((*Accumulator).foldSide, records)
	direct.updateWith((*Accumulator).scanSide, records)
	perKey := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
	perKey.updateWith((*Accumulator).scanSidePerKey, records)
	assertBlocksEqual(t, folded, direct, "fold vs direct")
	assertBlocksEqual(t, perKey, direct, "per-key vs tiled")
	assertBlocksEqual(t, kern, direct, "Update vs direct")

	// Merge adds discard cells too; they must stay invisible in the sum,
	// both when merging into an existing candidate and when copying one.
	merged := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys[:2])
	merged.Update(records[:n/2])
	tail := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
	tail.Update(records[n/2:])
	head := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys[2:])
	head.Update(records[:n/2])
	merged.Merge(tail)
	merged.Merge(head)

	for _, acc := range []*Accumulator{kern, folded, merged} {
		for _, k := range keys {
			want := bruteForce(db, records, k)
			total := 0
			rm := acc.Snapshot(k)
			if len(rm.Subgroups) != len(want) {
				t.Fatalf("%v: %d subgroups, brute force has %d", k, len(rm.Subgroups), len(want))
			}
			for _, sg := range rm.Subgroups {
				if fmt.Sprint(sg.Counts) != fmt.Sprint(want[sg.Value]) {
					t.Fatalf("%v value %d: counts %v, brute force %v", k, sg.Value, sg.Counts, want[sg.Value])
				}
				total += sg.N
			}
			if rm.TotalRecords != total || acc.NumRecords(k) != total {
				t.Fatalf("%v: TotalRecords=%d NumRecords=%d, brute force %d", k, rm.TotalRecords, acc.NumRecords(k), total)
			}
			for _, m := range []PeculiarityMeasure{PecTVD, PecKL} {
				got, _ := acc.CriteriaEstimateOpt(k, nil, 1, m)
				exp, _ := ref.CriteriaEstimateOpt(k, nil, 1, m)
				if got != exp {
					t.Fatalf("%v measure %v: estimate %v, reference path %v", k, m, got, exp)
				}
			}
		}
	}
	if !bytes.Equal(kern.EncodeWire(), ref.EncodeWire()) {
		t.Fatal("EncodeWire of the kernel path and of the reference path differ")
	}
	dec, err := (&Builder{DB: db}).DecodeWire(query.Description{}, kern.EncodeWire())
	if err != nil {
		t.Fatal(err)
	}
	if m := discardMass(dec); m != 0 {
		t.Fatalf("decoded accumulator carries %d increments in discard cells", m)
	}
}

// shapedDB builds a synthetic database of a given shape — entities per
// side and records, which is all the strategy choice looks at — with every
// cell kind a scan meets: atomic and multi-valued attributes on both sides,
// missing atomic values, empty value sets, the missing label inside a set,
// missing scores, and two scales. Deterministic.
func shapedDB(tb testing.TB, nRev, nItem, nRec int) (*dataset.DB, []Key) {
	return shapedDBScales(tb, nRev, nItem, nRec, 5, 3)
}

// shapedDBScales is shapedDB with one rating dimension per given scale.
func shapedDBScales(tb testing.TB, nRev, nItem, nRec int, scales ...int) (*dataset.DB, []Key) {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	rev := dataset.NewEntityTable("reviewers", dataset.MustSchema(
		dataset.Attribute{Name: "gender", Kind: dataset.Atomic},
		dataset.Attribute{Name: "tags", Kind: dataset.MultiValued},
	))
	item := dataset.NewEntityTable("items", dataset.MustSchema(
		dataset.Attribute{Name: "city", Kind: dataset.Atomic},
		dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued},
	))
	fill := func(t *dataset.EntityTable, n int, atomic, multi string, nAtomic, nMulti int) {
		for e := 0; e < n; e++ {
			v := "" // missing one time in nAtomic+1
			if k := rng.Intn(nAtomic + 1); k > 0 {
				v = fmt.Sprintf("%s%d", atomic, k)
			}
			var set []string
			for k := rng.Intn(4); k > 0; k-- {
				set = append(set, setLabel(multi, rng.Intn(nMulti)))
			}
			if _, err := t.AppendRow(fmt.Sprintf("%s%d", t.Name, e),
				map[string]string{atomic: v}, map[string][]string{multi: set}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	fill(rev, nRev, "gender", "tags", 4, 30)
	fill(item, nItem, "city", "cuisine", 12, 20)
	dims := make([]dataset.Dimension, len(scales))
	for d, scale := range scales {
		dims[d] = dataset.Dimension{Name: fmt.Sprintf("dim%d", d), Scale: scale}
	}
	ratings, err := dataset.NewRatingTable(dims...)
	if err != nil {
		tb.Fatal(err)
	}
	scores := make([]dataset.Score, len(scales))
	for r := 0; r < nRec; r++ {
		reviewer, item := rng.Intn(nRev), rng.Intn(nItem)
		for d, scale := range scales {
			scores[d] = dataset.Score(rng.Intn(scale + 1)) // 0 = missing
		}
		if err := ratings.Append(reviewer, item, scores); err != nil {
			tb.Fatal(err)
		}
	}
	db := dataset.NewDB("shaped", rev, item, ratings)
	if err := db.Freeze(); err != nil {
		tb.Fatal(err)
	}
	var keys []Key
	for d := range ratings.Dimensions {
		keys = append(keys,
			Key{Side: query.ReviewerSide, Attr: "gender", Dim: d},
			Key{Side: query.ReviewerSide, Attr: "tags", Dim: d},
			Key{Side: query.ItemSide, Attr: "city", Dim: d},
			Key{Side: query.ItemSide, Attr: "cuisine", Dim: d},
		)
	}
	return db, keys
}

// TestStrategySwitch walks the strategy choice across dataset shapes and
// across the crossover: for a shape where both sides fold (MovieLens:
// tens of ratings per reviewer and per item), where only the item side
// does (Yelp: 1.3 ratings per reviewer), and where neither does, batches
// one record short of each side's crossover, at it, one past it, the whole
// table and none of it must leave Update's blocks identical to the
// reference scan's outside the discard cells, to the brute-force tally,
// and to either strategy forced — also with a candidate pruned between a
// direct batch and a folded one, and with a folded range cut into shards
// that each scan directly and merge.
func TestStrategySwitch(t *testing.T) {
	const stride = 6 // the wider of the two scales
	for _, shape := range []struct {
		name                     string
		nRev, nItem, nRec        int
		reviewersFold, itemsFold bool // on the whole table
	}{
		{"both sides (MovieLens-shaped)", 40, 70, 6_000, true, true},
		{"item side only (Yelp-shaped)", 4_000, 10, 5_200, false, true},
		{"neither side", 3_000, 2_000, 500, false, false},
	} {
		t.Run(shape.name, func(t *testing.T) {
			db, keys := shapedDB(t, shape.nRev, shape.nItem, shape.nRec)
			all := allRecords(db)
			if r, i := foldPays(shape.nRev, stride, len(all)), foldPays(shape.nItem, stride, len(all)); r != shape.reviewersFold || i != shape.itemsFold {
				t.Fatalf("whole table folds reviewers=%t items=%t, the shape promises %t / %t", r, i, shape.reviewersFold, shape.itemsFold)
			}
			lengths := []int{0, len(all)}
			for _, rows := range []int{shape.nRev, shape.nItem} {
				first := firstFoldedLen(rows, stride)
				lengths = append(lengths, first-1, first, first+1)
			}
			for _, n := range lengths {
				if n > len(all) {
					continue
				}
				// A strided sample rather than a prefix: the batch reaches
				// every part of the table, as a selection's records do.
				records := make([]int32, n)
				for i := range records {
					records[i] = all[i*len(all)/n]
				}
				label := fmt.Sprintf("%d records", n)
				kern, ref := kernelPair(db, keys)
				kern.Update(records)
				ref.updateReference(records)
				assertAccEqual(t, kern, ref, keys, label)
				folded, direct := kernelPair(db, keys)
				folded.updateWith((*Accumulator).foldSide, records)
				direct.updateWith((*Accumulator).scanSide, records)
				assertBlocksEqual(t, folded, direct, label+", fold vs direct")
				assertBlocksEqual(t, kern, direct, label+", Update vs direct")
				for i, k := range keys {
					want := bruteForce(db, records, k)
					bars := 0
					kern.parts[i].rows(func(v dataset.ValueID, counts []int32, _ int) {
						bars++
						if fmt.Sprint(counts) != fmt.Sprint(want[v]) {
							t.Fatalf("%s, %v value %d: counts %v, brute force %v", label, k, v, counts, want[v])
						}
					})
					if bars != len(want) {
						t.Fatalf("%s, %v: %d subgroups, brute force has %d", label, k, bars, len(want))
					}
				}
			}

			// Pruning between a batch too short to fold and the rest.
			head := min(firstFoldedLen(min(shape.nRev, shape.nItem), stride)-1, len(all)/2)
			kern, ref := kernelPair(db, keys)
			kern.Update(all[:head])
			ref.updateReference(all[:head])
			for _, drop := range []Key{keys[2], keys[5]} {
				kern.Remove(drop)
				ref.Remove(drop)
			}
			kern.Update(all[head:])
			ref.updateReference(all[head:])
			assertAccEqual(t, kern, ref, kern.Keys(), "Remove between batches")
			assertAligned(t, kern, nil, "Remove between batches")

			// The sharded scan: private accumulators over shards too short
			// to fold on any side, merged in order, against the whole range
			// in one Update.
			shard := head / 2
			if foldPays(shape.nRev, stride, shard) || foldPays(shape.nItem, stride, shard) {
				t.Fatalf("a %d-record shard folds: the shards do not straddle the crossover", shard)
			}
			whole, merged := kernelPair(db, keys)
			whole.Update(all)
			for lo := 0; lo < len(all); lo += shard {
				sh := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
				sh.Update(all[lo:min(lo+shard, len(all))])
				merged.Merge(sh)
			}
			assertBlocksEqual(t, merged, whole, "merged direct shards vs one folded range")
		})
	}
}

// TestTiledScanMatchesPerKey compares the direct strategy's two loops cell
// for cell: the tile (scanSide: the join resolved once per scanTile records)
// against one pass per candidate (scanSidePerKey), against Update and
// against the reference scan, on batches that end before, on and after a
// tile boundary. The shapes have multi-valued attributes inside every tile,
// dimensions of different scales, and too many entities for either side to
// fold; the last has one dimension more than the tile's scratch holds, so
// its scanSide must take the per-key loop (indexing the scratch by that
// dimension would panic). A pruned accumulator — a dimension with no live
// candidate on one attribute, an attribute down to one candidate, an
// attribute gone — and direct shards merged against one tiled range close
// each shape.
func TestTiledScanMatchesPerKey(t *testing.T) {
	for _, shape := range []struct {
		name   string
		scales []int
	}{
		{"two scales", mixedScales(2)},
		{"as many dimensions as the scratch holds", mixedScales(tileDims)},
		{"one dimension more (fallback)", mixedScales(tileDims + 1)},
	} {
		t.Run(shape.name, func(t *testing.T) {
			const nRev, nItem = 3_000, 2_000
			db, keys := shapedDBScales(t, nRev, nItem, 2*scanTile+3, shape.scales...)
			all := allRecords(db)
			if foldPays(nItem, 1, len(all)) {
				t.Fatal("the whole table folds: Update would not scan it directly")
			}
			for _, n := range []int{0, 1, scanTile - 1, scanTile, scanTile + 1, 2*scanTile + 3} {
				records := all[len(all)-n:]
				label := fmt.Sprintf("%d records", n)
				tiled, perKey := kernelPair(db, keys)
				tiled.updateWith((*Accumulator).scanSide, records)
				perKey.updateWith((*Accumulator).scanSidePerKey, records)
				assertBlocksEqual(t, tiled, perKey, label+", tiled vs per-key")
				kern, ref := kernelPair(db, keys)
				kern.Update(records)
				ref.updateReference(records)
				assertBlocksEqual(t, kern, perKey, label+", Update vs per-key")
				assertAccEqual(t, kern, ref, keys, label)
			}

			// Pruning between batches: gender keeps dimension 0 only (one
			// candidate: the loop that skips the value gather), cuisine
			// loses dimension 0 (a dimension live on the side but not on
			// the attribute), city goes altogether.
			tiled, perKey := kernelPair(db, keys)
			ref := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
			head := scanTile/2 + 1
			tiled.updateWith((*Accumulator).scanSide, all[:head])
			perKey.updateWith((*Accumulator).scanSidePerKey, all[:head])
			ref.updateReference(all[:head])
			for _, k := range keys {
				if (k.Attr == "gender" && k.Dim != 0) || (k.Attr == "cuisine" && k.Dim == 0) || k.Attr == "city" {
					tiled.Remove(k)
					perKey.Remove(k)
					ref.Remove(k)
				}
			}
			tiled.updateWith((*Accumulator).scanSide, all[head:])
			perKey.updateWith((*Accumulator).scanSidePerKey, all[head:])
			ref.updateReference(all[head:])
			assertBlocksEqual(t, tiled, perKey, "Remove between batches, tiled vs per-key")
			assertAccEqual(t, tiled, ref, tiled.Keys(), "Remove between batches")
			assertAligned(t, tiled, nil, "Remove between batches")

			// The sharded scan: shards that end inside a tile, each scanned
			// directly and merged in order, against the range in one piece.
			whole, merged := kernelPair(db, keys)
			whole.updateWith((*Accumulator).scanSide, all)
			for lo := 0; lo < len(all); lo += head {
				sh := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
				sh.Update(all[lo:min(lo+head, len(all))])
				merged.Merge(sh)
			}
			assertBlocksEqual(t, merged, whole, "merged direct shards vs one tiled range")
		})
	}
}

// mixedScales returns n rating scales, no two neighbours alike.
func mixedScales(n int) []int {
	scales := make([]int, n)
	for d := range scales {
		scales[d] = []int{5, 3, 7, 2, 4}[d%5]
	}
	return scales
}

// TestUnfrozenDatabaseIsRefused: an unfrozen database has no columnar
// projections for the kernel to read and no engine can hand out a group of
// it, so building an accumulator over one is a bug, reported where it is
// made rather than as a nil column inside the first Update.
func TestUnfrozenDatabaseIsRefused(t *testing.T) {
	reviewers := dataset.NewEntityTable("reviewers", dataset.MustSchema(dataset.Attribute{Name: "g"}))
	items := dataset.NewEntityTable("items", dataset.MustSchema(dataset.Attribute{Name: "tag", Kind: dataset.MultiValued}))
	rt, err := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{DB: dataset.NewDB("k", reviewers, items, rt)}
	keys := []Key{{Side: query.ReviewerSide, Attr: "g", Dim: 0}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewAccumulator over an unfrozen database did not panic")
			}
		}()
		b.NewAccumulator(query.Description{}, keys)
	}()
	if err := b.DB.Freeze(); err != nil {
		t.Fatal(err)
	}
	b.NewAccumulator(query.Description{}, keys).Update(nil)
}

// setLabel names the i-th value of a fuzzed value set. Index 0 is the
// missing label itself: a CSV cell may list it inside a set ("a;__missing__"),
// alone or beside real values, and neither scan path may turn it into a
// subgroup.
func setLabel(prefix string, i int) string {
	if i == 0 {
		return dataset.MissingLabel
	}
	return fmt.Sprintf("%s%d", prefix, i)
}

// fuzzShapeDB builds a database whose shape — table sizes, dictionary
// sizes, missing values, the missing label inside value sets, empty value
// sets, scales — is driven by the
// fuzzer's shape bytes. Deterministic in its input.
func fuzzShapeDB(t *testing.T, shape []byte) (*dataset.DB, []Key) {
	t.Helper()
	at := func(i int) byte {
		if len(shape) == 0 {
			return 0
		}
		return shape[i%len(shape)]
	}
	nRev := 1 + int(at(0))%6
	nItem := 1 + int(at(1))%5
	scaleA := 2 + int(at(2))%8
	scaleB := 2 + int(at(3))%4
	nRec := 1 + int(at(4))%64

	rs := dataset.MustSchema(
		dataset.Attribute{Name: "g", Kind: dataset.Atomic},
		dataset.Attribute{Name: "tags", Kind: dataset.MultiValued},
	)
	is := dataset.MustSchema(
		dataset.Attribute{Name: "city", Kind: dataset.Atomic},
		dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued},
	)
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	cur := 5
	next := func() int { v := int(at(cur)); cur++; return v }
	for u := 0; u < nRev; u++ {
		g := ""
		if v := next() % 5; v > 0 {
			g = fmt.Sprintf("g%d", v)
		}
		var tags []string
		for k := next() % 4; k > 0; k-- {
			tags = append(tags, setLabel("t", next()%7))
		}
		if _, err := reviewers.AppendRow(fmt.Sprintf("u%d", u),
			map[string]string{"g": g}, map[string][]string{"tags": tags}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nItem; i++ {
		city := ""
		// A wide dictionary: high value ids reach records even when only a
		// few rows exist.
		if v := next() % 40; v > 0 {
			city = fmt.Sprintf("c%d", v)
		}
		var cs []string
		for k := next() % 5; k > 0; k-- {
			cs = append(cs, setLabel("k", next()%25))
		}
		if _, err := items.AppendRow(fmt.Sprintf("i%d", i),
			map[string]string{"city": city}, map[string][]string{"cuisine": cs}); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := dataset.NewRatingTable(
		dataset.Dimension{Name: "a", Scale: scaleA},
		dataset.Dimension{Name: "b", Scale: scaleB},
	)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nRec; r++ {
		if err := rt.Append(next()%nRev, next()%nItem, []dataset.Score{
			dataset.Score(next() % (scaleA + 1)), // 0 = missing
			dataset.Score(next() % (scaleB + 1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db := dataset.NewDB("fuzzshape", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for dim := 0; dim < 2; dim++ {
		keys = append(keys,
			Key{Side: query.ReviewerSide, Attr: "g", Dim: dim},
			Key{Side: query.ReviewerSide, Attr: "tags", Dim: dim},
			Key{Side: query.ItemSide, Attr: "city", Dim: dim},
			Key{Side: query.ItemSide, Attr: "cuisine", Dim: dim},
		)
	}
	return db, keys
}

// FuzzScanKernel fuzzes the dataset shape (dictionary sizes, missing
// values, scales) and the record selection (positions with repeats,
// scores) together, asserting the kernel's accumulator state is
// bit-identical to the row-oriented reference path — one-shot, under
// each strategy forced (fold, tiled direct, per-key direct), and split into
// two batches — and never panics.
func FuzzScanKernel(f *testing.F) {
	f.Add([]byte{3, 2, 4, 2, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 1, 1, 1, 1, 0}, []byte{0, 0, 0, 0})
	f.Add([]byte{5, 4, 7, 3, 63, 39, 17, 250, 128, 9, 33, 200, 5, 81}, []byte{63, 63, 0, 1, 17, 42, 250})
	f.Add([]byte{2, 3, 2, 2, 8, 255, 254, 253, 0, 0, 0, 7}, []byte{7, 6, 5, 4, 3, 2, 1, 0})
	// The missing label inside value sets: reviewer 0 lists it alone,
	// reviewer 1 beside a real tag, item 0 twice beside two real cuisines.
	f.Add([]byte{1, 0, 3, 2, 11, 1, 1, 0, 2, 2, 0, 3, 5, 4, 0, 7, 0, 9}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	// Batches long enough to be scanned entity-first: one reviewer and one
	// item on scale 2 (a 3-cell entity block) under 9 records; six reviewers
	// and five items on scales 9 and 5 under 200 records with repeats, where
	// the two-batch split and the re-scan after Remove fold as well; and the
	// missing-label shape above under 64 records.
	f.Add([]byte{0, 0, 0, 0, 8, 1, 1, 1, 1, 1, 1, 2, 0, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{5, 4, 7, 3, 63, 39, 17, 250, 128, 9, 33, 200, 5, 81, 0, 2, 77}, bytes.Repeat([]byte{0, 9, 63, 31, 17, 42, 250, 5}, 25))
	f.Add([]byte{1, 0, 3, 2, 11, 1, 1, 0, 2, 2, 0, 3, 5, 4, 0, 7, 0, 9}, bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 3, 0, 0}, 4))
	// Batches that cross the direct strategy's tile boundary (scanTile
	// records): exactly one tile and one record on the six-by-five shape, and
	// two tiles and three on the missing-label shape, whose two-batch split
	// ends its first half inside a tile.
	f.Add([]byte{5, 4, 7, 3, 63, 39, 17, 250, 128, 9, 33, 200, 5, 81, 0, 2, 77}, bytes.Repeat([]byte{0, 9, 63, 31, 17, 42, 250, 5, 11}, 29)[:scanTile+1])
	f.Add([]byte{1, 0, 3, 2, 11, 1, 1, 0, 2, 2, 0, 3, 5, 4, 0, 7, 0, 9}, bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 3, 0, 0, 7}, 31)[:2*scanTile+3])

	// One recycled accumulator for the whole run (below): these inputs, in
	// this order, put it through two databases, a long list and then a short
	// and an empty one over the same blocks, and candidate sets that shrink to
	// one key and grow back — TestRecycledAccumulatorEqualsFresh's sequence in
	// this target's terms. The last record byte picks the candidate set.
	sixByFive := []byte{5, 4, 7, 3, 63, 39, 17, 250, 128, 9, 33, 200, 5, 81, 0, 2, 77}
	f.Add(sixByFive, append(bytes.Repeat([]byte{0, 9, 63, 31, 17, 42, 250, 5}, 40), 0xff))
	f.Add(sixByFive, []byte{3, 3, 0xff})
	f.Add(sixByFive, []byte{})
	f.Add(sixByFive, []byte{9, 8, 7, 6, 0x02})
	f.Add([]byte{1, 0, 3, 2, 11, 1, 1, 0, 2, 2, 0, 3, 5, 4, 0, 7, 0, 9}, []byte{0, 1, 2, 3, 4, 5, 0xb5})
	f.Add(sixByFive, append(bytes.Repeat([]byte{62, 1, 30}, 20), 0x7e))
	recycled := new(Accumulator)

	f.Fuzz(func(t *testing.T, shape []byte, recs []byte) {
		db, keys := fuzzShapeDB(t, shape)
		n := db.Ratings.Len()
		records := make([]int32, len(recs))
		for i, b := range recs {
			records[i] = int32(int(b) % n)
		}

		// A recycled accumulator is a fresh one, whatever the inputs before
		// this one left in its arrays: the candidates the last record byte's
		// bits name (all of them for an empty list), in the fixture's
		// dimension-major order, so an attribute's keys are not contiguous.
		pick := keys
		if len(recs) > 0 {
			pick = nil
			for i, k := range keys {
				if recs[len(recs)-1]>>i&1 == 1 {
					pick = append(pick, k)
				}
			}
		}
		assertRecycledEqualsFresh(t, &Builder{DB: db}, recycled, query.Description{}, pick, records, "recycled")

		kern, ref := kernelPair(db, keys)
		kern.Update(records)
		ref.updateReference(records)
		assertAccEqual(t, kern, ref, keys, "one-shot")

		// Whichever strategy Update chose for each side, the others leave
		// the same blocks, discard cells included.
		folded, direct := kernelPair(db, keys)
		folded.updateWith((*Accumulator).foldSide, records)
		direct.updateWith((*Accumulator).scanSide, records)
		perKey := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
		perKey.updateWith((*Accumulator).scanSidePerKey, records)
		assertBlocksEqual(t, folded, direct, "fold vs direct")
		assertBlocksEqual(t, perKey, direct, "per-key vs tiled")
		assertBlocksEqual(t, kern, direct, "Update vs direct")

		// The same records split into two kernel batches must land in the
		// same state.
		split := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys)
		mid := len(records) / 2
		split.Update(records[:mid])
		split.Update(records[mid:])
		assertAccEqual(t, split, ref, keys, "two-batch")

		// Candidates stay addressable by position on both paths, also with
		// one pruned away between two batches.
		assertAligned(t, kern, nil, "kernel")
		assertAligned(t, ref, nil, "reference")
		if len(keys) > 1 {
			drop := keys[len(records)%len(keys)]
			kern.Remove(drop)
			ref.Remove(drop)
			kern.Update(records)
			ref.updateReference(records)
			assertAligned(t, kern, nil, "kernel after Remove")
			assertAccEqual(t, kern, ref, kern.Keys(), "after Remove")
		}
	})
}
