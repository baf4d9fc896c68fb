package ratingmap

import (
	"fmt"
	"reflect"
	"testing"

	"subdex/internal/query"
)

// dump renders what a snapshot holds beyond its key: its digest, its pooled
// histogram and its bars in display order.
func dump(rm *RatingMap) string {
	order := make([]int, len(rm.Subgroups))
	for i := range rm.Subgroups {
		order[i] = int(rm.Subgroups[i].Value)
	}
	return fmt.Sprintf("%s total %v order %v", rm.Digest(), rm.total, order)
}

// snapshotPick names one candidate of one accumulator.
type snapshotPick struct {
	acc *Accumulator
	i   int
}

// TestSnapshotIntoEqualsSnapshotAt writes one map over and over with a
// sequence of candidates whose bar counts grow, shrink and drop to zero, on
// a scale of 20 and one of 3: every time, the map is exactly the one
// SnapshotAt makes fresh — nothing of what it held before shows — and once
// it fits the whole sequence, writing it over allocates nothing.
func TestSnapshotIntoEqualsSnapshotAt(t *testing.T) {
	db, keys := alignmentDB(t)
	b := &Builder{DB: db}
	records := allRecords(db)
	var seq []snapshotPick
	// Per record prefix every candidate: city has a bar per item the prefix
	// reaches, the key outside the schema none; the empty prefix has none
	// anywhere.
	for _, n := range []int{len(records), 3, 0, 40, 400, 1} {
		acc := b.NewAccumulator(query.Description{}, keys)
		acc.Update(records[:n])
		for i := range keys {
			seq = append(seq, snapshotPick{acc, i})
		}
	}

	var rm *RatingMap
	scales := map[int]bool{}
	var grew, shrank, zero bool
	last := -1
	for step, s := range seq {
		rm = s.acc.SnapshotInto(rm, s.i)
		want := s.acc.SnapshotAt(s.i)
		if !reflect.DeepEqual(rm, want) {
			t.Fatalf("step %d, %v: SnapshotInto wrote %s, SnapshotAt makes %s", step, s.acc.Keys()[s.i], dump(rm), dump(want))
		}
		bars := len(want.Subgroups)
		scales[want.Scale] = true
		grew, shrank, zero = grew || bars > last, shrank || last >= 0 && bars < last, zero || bars == 0
		last = bars
	}
	if !grew || !shrank || !zero || len(scales) != 2 {
		t.Fatalf("the sequence must grow, shrink and reach zero bars on two scales: grew %t, shrank %t, zero %t, scales %v",
			grew, shrank, zero, scales)
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, s := range seq {
			rm = s.acc.SnapshotInto(rm, s.i)
		}
	}); n != 0 {
		t.Errorf("writing a map that fits over %d times allocates %v times, want 0", len(seq), n)
	}
}

// FuzzSnapshotInto: a map written over by any sequence of candidates, each
// of any record selection, is each time the map SnapshotAt makes fresh.
// Every byte of picks names a candidate (its low bits) and how many of the
// records its accumulator is fed (the rest).
func FuzzSnapshotInto(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{255, 0, 7, 3, 3, 1})
	f.Add([]byte{}, []byte{2, 5})
	f.Add([]byte{63, 63, 0, 9, 18}, []byte{46, 6, 0, 46})
	db, keys := fuzzFixture(f)
	n := db.Ratings.Len()
	b := &Builder{DB: db}

	f.Fuzz(func(t *testing.T, raw, picks []byte) {
		records := make([]int32, len(raw))
		for i, c := range raw {
			records[i] = int32(int(c) % n)
		}
		var rm *RatingMap
		for step, pk := range picks {
			i := int(pk) % len(keys)
			acc := b.NewAccumulator(query.Description{}, keys)
			acc.Update(records[:int(pk)/len(keys)%(len(records)+1)])
			rm = acc.SnapshotInto(rm, i)
			if want := acc.SnapshotAt(i); !reflect.DeepEqual(rm, want) {
				t.Fatalf("step %d, %v: SnapshotInto wrote %s, SnapshotAt makes %s", step, keys[i], dump(rm), dump(want))
			}
		}
	})
}
