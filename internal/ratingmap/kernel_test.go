package ratingmap

// Tests for the fused columnar scan kernel (kernel.go). The exactness
// contract — kernel accumulator state bit-identical to the row-oriented
// reference path on every input — is enforced three ways: fixture-driven
// unit tests here, the engine differential harness (7500+ randomized
// cases plus kernel-adversarial families), and FuzzScanKernel below,
// which fuzzes the dataset shape itself (dictionary sizes, attribute
// kinds, missing values, scales) alongside record positions and scores.

import (
	"bytes"
	"fmt"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// kernelPair builds one kernel-enabled and one reference accumulator over
// the same database and candidate set.
func kernelPair(db *dataset.DB, keys []Key) (kern, ref *Accumulator) {
	kb := &Builder{DB: db}
	rb := &Builder{DB: db, DisableKernel: true}
	return kb.NewAccumulator(query.Description{}, keys), rb.NewAccumulator(query.Description{}, keys)
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

// TestKernelSelection pins the dispatch rule: kernel on frozen databases,
// reference when disabled or unfrozen.
func TestKernelSelection(t *testing.T) {
	db, keys := fuzzFixture(nil)
	if acc := (&Builder{DB: db}).NewAccumulator(query.Description{}, keys); !acc.kernel {
		t.Fatal("frozen DB: kernel must be selected")
	}
	if acc := (&Builder{DB: db, DisableKernel: true}).NewAccumulator(query.Description{}, keys); acc.kernel {
		t.Fatal("DisableKernel: kernel must not be selected")
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
		ref.Update(records)
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
	ref.Update(batch(0, n/3))
	kern.Remove(keys[0])
	ref.Remove(keys[0])
	kern.Update(batch(n/3, 2*n/3))
	ref.Update(batch(n/3, 2*n/3))
	kern.Update(batch(2*n/3, n))
	ref.Update(batch(2*n/3, n))
	assertAccEqual(t, kern, ref, keys[1:], "after remove + 3 batches")
	if kern.Snapshot(keys[0]) != nil {
		t.Fatal("removed candidate still has a snapshot")
	}
}

// TestUpdateAllocatesNothing pins the property that replaced the kernel's
// per-Update scratch: a candidate's block is sized when its partial is
// built, so scanning a frozen database allocates nothing — for atomic and
// multi-valued keys alike.
func TestUpdateAllocatesNothing(t *testing.T) {
	db, keys := fuzzFixture(t)
	records := allRecords(db)
	for name, ks := range map[string][]Key{
		"atomic": {{Side: query.ReviewerSide, Attr: "gender", Dim: 0}, {Side: query.ItemSide, Attr: "city", Dim: 1}},
		"multi":  {{Side: query.ItemSide, Attr: "tag", Dim: 0}, {Side: query.ItemSide, Attr: "tag", Dim: 1}},
		"all":    keys,
	} {
		acc := (&Builder{DB: db}).NewAccumulator(query.Description{}, ks)
		if !acc.kernel {
			t.Fatal("frozen DB must select the kernel")
		}
		if n := testing.AllocsPerRun(50, func() { acc.Update(records) }); n != 0 {
			t.Errorf("%s keys: Update allocates %v times per call, want 0", name, n)
		}
	}
}

// bruteForce tallies one candidate's value → histogram by walking the
// row-oriented accessors with map bookkeeping: no block, no discard cells.
func bruteForce(db *dataset.DB, records []int32, k Key) map[dataset.ValueID][]int {
	t, rowOf := db.Items, db.Ratings.Item
	if k.Side == query.ReviewerSide {
		t, rowOf = db.Reviewers, db.Ratings.Reviewer
	}
	ai := t.Schema.Index(k.Attr)
	out := map[dataset.ValueID][]int{}
	for _, r := range records {
		s := db.Ratings.Scores[k.Dim][r]
		var vs []dataset.ValueID
		if t.Schema.At(ai).Kind == dataset.MultiValued {
			vs = t.MultiValues(ai, int(rowOf[r]))
		} else {
			vs = []dataset.ValueID{t.AtomicValue(ai, int(rowOf[r]))}
		}
		for _, v := range vs {
			if v == dataset.MissingValue || s == 0 {
				continue
			}
			if out[v] == nil {
				out[v] = make([]int, db.Ratings.Dimensions[k.Dim].Scale)
			}
			out[v][s-1]++
		}
	}
	return out
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
// its blocks. No reader may see them: NumRecords, Snapshot,
// CriteriaEstimateOpt, EncodeWire and Merge must agree with the brute-force
// tally and with the reference path, whose discard cells stay empty.
func TestDiscardCellsNeverLeak(t *testing.T) {
	db, keys := fuzzFixture(t)
	records := allRecords(db)
	n := len(records)
	kern, ref := kernelPair(db, keys)
	kern.Update(records)
	ref.Update(records)
	if discardMass(kern) == 0 {
		t.Fatal("fixture no longer reaches the kernel's discard cells: the test is vacuous")
	}
	if m := discardMass(ref); m != 0 {
		t.Fatalf("reference path wrote %d increments into discard cells", m)
	}

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

	for _, acc := range []*Accumulator{kern, merged} {
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

// TestKernelUnfrozenFallsBack: an unfrozen database has no columnar
// projections; the accumulator must silently use the reference path and
// still match a frozen kernel scan of the same data.
func TestKernelUnfrozenFallsBack(t *testing.T) {
	build := func(freeze bool) *dataset.DB {
		rs := dataset.MustSchema(dataset.Attribute{Name: "g", Kind: dataset.Atomic})
		is := dataset.MustSchema(dataset.Attribute{Name: "tag", Kind: dataset.MultiValued})
		reviewers := dataset.NewEntityTable("reviewers", rs)
		items := dataset.NewEntityTable("items", is)
		for i := 0; i < 4; i++ {
			reviewers.AppendRow("u", map[string]string{"g": fmt.Sprintf("g%d", i%3)}, nil)
			items.AppendRow("i", nil, map[string][]string{"tag": {"a", fmt.Sprintf("t%d", i)}})
		}
		rt, err := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 4})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 12; r++ {
			rt.Append(r%4, (r*3)%4, []dataset.Score{dataset.Score(r % 5)})
		}
		db := dataset.NewDB("k", reviewers, items, rt)
		if freeze {
			if err := db.Freeze(); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	keys := []Key{
		{Side: query.ReviewerSide, Attr: "g", Dim: 0},
		{Side: query.ItemSide, Attr: "tag", Dim: 0},
	}
	records := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}

	unfrozen := (&Builder{DB: build(false)}).NewAccumulator(query.Description{}, keys)
	if unfrozen.kernel {
		t.Fatal("unfrozen DB must not select the kernel")
	}
	unfrozen.Update(records)

	frozen := (&Builder{DB: build(true)}).NewAccumulator(query.Description{}, keys)
	if !frozen.kernel {
		t.Fatal("frozen DB must select the kernel")
	}
	frozen.Update(records)

	if g, w := accDigest(frozen, keys), accDigest(unfrozen, keys); g != w {
		t.Fatalf("frozen kernel scan diverges from unfrozen reference scan\n got: %s\nwant: %s", g, w)
	}
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
// bit-identical to the row-oriented reference path — one-shot and split
// into two batches — and never panics.
func FuzzScanKernel(f *testing.F) {
	f.Add([]byte{3, 2, 4, 2, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 1, 1, 1, 1, 0}, []byte{0, 0, 0, 0})
	f.Add([]byte{5, 4, 7, 3, 63, 39, 17, 250, 128, 9, 33, 200, 5, 81}, []byte{63, 63, 0, 1, 17, 42, 250})
	f.Add([]byte{2, 3, 2, 2, 8, 255, 254, 253, 0, 0, 0, 7}, []byte{7, 6, 5, 4, 3, 2, 1, 0})
	// The missing label inside value sets: reviewer 0 lists it alone,
	// reviewer 1 beside a real tag, item 0 twice beside two real cuisines.
	f.Add([]byte{1, 0, 3, 2, 11, 1, 1, 0, 2, 2, 0, 3, 5, 4, 0, 7, 0, 9}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})

	f.Fuzz(func(t *testing.T, shape []byte, recs []byte) {
		db, keys := fuzzShapeDB(t, shape)
		n := db.Ratings.Len()
		records := make([]int32, len(recs))
		for i, b := range recs {
			records[i] = int32(int(b) % n)
		}

		kern, ref := kernelPair(db, keys)
		kern.Update(records)
		ref.Update(records)
		assertAccEqual(t, kern, ref, keys, "one-shot")

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
			ref.Update(records)
			assertAligned(t, kern, nil, "kernel after Remove")
			assertAccEqual(t, kern, ref, kern.Keys(), "after Remove")
		}
	})
}
