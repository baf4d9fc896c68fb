package ratingmap

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"subdex/internal/query"
)

// assertRecycledEqualsFresh recycles acc for (desc, keys), scans records
// into it and into a NewAccumulator, and holds the two to the same wire
// frame, the same cells — discard cells included, which no frame shows —
// the same keys and the same bytes charged.
func assertRecycledEqualsFresh(t *testing.T, b *Builder, acc *Accumulator, desc query.Description, keys []Key, records []int32, label string) {
	t.Helper()
	b.Recycle(acc, desc, keys)
	fresh := b.NewAccumulator(desc, keys)
	assertBlocksEqual(t, acc, fresh, label+": recycled, before the scan")
	acc.Update(records)
	fresh.Update(records)
	if !bytes.Equal(acc.EncodeWire(), fresh.EncodeWire()) {
		t.Fatalf("%s: the recycled accumulator's wire frame differs from a fresh one's", label)
	}
	assertBlocksEqual(t, acc, fresh, label)
	if !slices.Equal(acc.Keys(), fresh.Keys()) || !acc.Desc().Equal(fresh.Desc()) {
		t.Fatalf("%s: recycled keys %v of %s, fresh %v of %s", label, acc.Keys(), acc.Desc(), fresh.Keys(), fresh.Desc())
	}
	if acc.Bytes() != fresh.Bytes() {
		t.Fatalf("%s: recycled Bytes %d, fresh %d", label, acc.Bytes(), fresh.Bytes())
	}
	assertAligned(t, acc, nil, label)
}

// TestRecycledAccumulatorEqualsFresh drives one accumulator through what a
// recommendation pass puts a pooled one through — key sets that shrink and
// grow, an attribute whose keys are not contiguous, a multi-valued attribute
// alone, a key outside the schema, an empty record list, a short list after
// a long one (stale cells), a candidate pruned before the accumulator goes
// back, and another database altogether — and after every step it must be
// indistinguishable from NewAccumulator + Update.
func TestRecycledAccumulatorEqualsFresh(t *testing.T) {
	db, keys := shapedDB(t, 40, 25, 3000) // keys are dimension-major: each attribute's two keys are apart
	other, otherKeys := shapedDBScales(t, 7, 90, 500, 9)
	b, bOther := &Builder{DB: db}, &Builder{DB: other}
	rng := rand.New(rand.NewSource(25))
	sample := func(n, of int) []int32 {
		records := make([]int32, n)
		for i := range records {
			records[i] = int32(rng.Intn(of))
		}
		slices.Sort(records)
		return records
	}
	contiguous := attributeMajor(keys)
	bound := query.MustDescription(query.Selector{Side: query.ItemSide, Attr: "city", Value: "city3"})
	all := int(db.Ratings.Len())

	acc := new(Accumulator)
	for _, step := range []struct {
		label   string
		b       *Builder
		desc    query.Description
		keys    []Key
		records []int32
		prune   bool
	}{
		{"the zero accumulator", b, query.Description{}, contiguous, sample(2000, all), false},
		{"a short list after a long one", b, bound, contiguous, sample(40, all), false},
		{"no records", b, bound, contiguous, nil, false},
		{"fewer keys", b, query.Description{}, contiguous[2:6], sample(300, all), false},
		{"the multi-valued attribute alone", b, query.Description{}, []Key{{Side: query.ReviewerSide, Attr: "tags", Dim: 1}}, sample(700, all), false},
		{"more keys again, attributes not contiguous", b, bound, keys, sample(1500, all), true},
		{"after a pruned candidate", b, query.Description{}, keys[1:], sample(60, all), false},
		{"a key outside the schema", b, query.Description{}, append([]Key{{Side: query.ItemSide, Attr: "nowhere"}}, contiguous...), sample(90, all), false},
		{"no keys", b, query.Description{}, nil, sample(10, all), false},
		{"another database, wider blocks", bOther, query.Description{}, otherKeys, sample(500, int(other.Ratings.Len())), false},
		{"and back", b, bound, contiguous, sample(256, all), false},
	} {
		assertRecycledEqualsFresh(t, step.b, acc, step.desc, step.keys, step.records, step.label)
		if step.prune { // leave it the way a pruned scan does
			acc.Remove(step.keys[3])
			acc.Remove(step.keys[0])
		}
	}
}

// TestRecycleReusesCapacity: once an accumulator has served a candidate set,
// serving it — or any set that fits — again allocates nothing.
func TestRecycleReusesCapacity(t *testing.T) {
	db, keys := shapedDB(t, 40, 25, 3000)
	b := &Builder{DB: db}
	keys = attributeMajor(keys)
	acc := b.NewAccumulator(query.Description{}, keys)
	smaller := keys[:len(keys)-2]
	if allocs := testing.AllocsPerRun(20, func() {
		b.Recycle(acc, query.Description{}, smaller)
		b.Recycle(acc, query.Description{}, keys)
	}); allocs != 0 {
		t.Fatalf("recycling into arrays that fit allocates %v times a round, want 0", allocs)
	}
}

// attributeMajor lists keys an attribute at a time, every attribute's
// dimensions together: the order Generator.Candidates enumerates.
func attributeMajor(keys []Key) []Key {
	var out []Key
	for _, k := range keys {
		if slices.Contains(out, k) {
			continue
		}
		for _, o := range keys {
			if o.Side == k.Side && o.Attr == k.Attr {
				out = append(out, o)
			}
		}
	}
	return out
}
