package ratingmap

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// digestReference is Digest as it was before it was rendered by appends:
// fmt verbs over a copied, sort.Slice'd subgroup list. Every golden trace,
// stored WAL and the benchmark's oracle hold bytes this body produced, so
// it stays as the oracle Digest is compared against.
func digestReference(rm *RatingMap) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d.%s.dim%d|n=%d|", rm.Side, rm.Attr, rm.Dim, rm.TotalRecords)
	sgs := append([]Subgroup(nil), rm.Subgroups...)
	sort.Slice(sgs, func(i, j int) bool { return sgs[i].Value < sgs[j].Value })
	for _, sg := range sgs {
		fmt.Fprintf(&b, "%d:%v;", sg.Value, sg.Counts)
	}
	return b.String()
}

func byValue(x, y Subgroup) int { return cmp.Compare(x.Value, y.Value) }

// inValueOrder returns a copy of rm whose subgroups are sorted by value,
// the order Digest renders without copying.
func inValueOrder(rm *RatingMap) *RatingMap {
	cp := *rm
	cp.Subgroups = slices.Clone(rm.Subgroups)
	slices.SortFunc(cp.Subgroups, byValue)
	return &cp
}

func assertDigest(t *testing.T, label string, rm *RatingMap) {
	t.Helper()
	if got, want := rm.Digest(), digestReference(rm); got != want {
		t.Fatalf("%s: Digest\n got %q\nwant %q", label, got, want)
	}
}

// TestDigestMatchesReference holds Digest to the reference's bytes on every
// candidate map of the three paper shapes, with subgroups as displayed
// (score order) and in value order, and on the degenerate maps.
func TestDigestMatchesReference(t *testing.T) {
	for _, sh := range shapesAt(0.05) {
		maps := (&Builder{DB: sh.db}).Build(query.Description{}, sh.batch(sh.db.Ratings.Len()), sh.keys)
		sorted, bars := 0, 0
		for _, rm := range maps {
			assertDigest(t, sh.name+" "+rm.Key.String(), rm)
			assertDigest(t, sh.name+" "+rm.Key.String()+" by value", inValueOrder(rm))
			if rm.Digest() != inValueOrder(rm).Digest() {
				t.Fatalf("%s %s: digest depends on the display order", sh.name, rm.Key)
			}
			if slices.IsSortedFunc(rm.Subgroups, byValue) {
				sorted++
			}
			bars = max(bars, len(rm.Subgroups))
		}
		if sorted == len(maps) {
			t.Errorf("%s: every map was already in value order; the sorting arm never ran", sh.name)
		}
		t.Logf("%s: %d maps, widest %d bars, %d already in value order", sh.name, len(maps), bars, sorted)
	}
	for label, rm := range map[string]*RatingMap{
		"empty map":    {Key: Key{Side: query.ItemSide, Attr: "city", Dim: 2}},
		"one subgroup": {Key: Key{Attr: "age"}, TotalRecords: 7, Subgroups: []Subgroup{{Value: 3, Counts: []int{1, 0, 6}, N: 7}}},
		"zero counts":  {Key: Key{Attr: "age"}, Subgroups: []Subgroup{{Value: 9, Counts: []int{0, 0, 0, 0, 0}}, {Value: 2, Counts: []int{0, 0, 0, 0, 0}}}},
		"no counts":    {Key: Key{Attr: "a|b;c"}, Subgroups: []Subgroup{{Value: 1}, {Value: 0, Counts: []int{}}}},
		"wide": {Key: Key{Attr: "tag", Dim: 11}, TotalRecords: 1 << 40, Subgroups: func() []Subgroup {
			sgs := make([]Subgroup, 300) // past both of Digest's stack buffers
			for i := range sgs {
				sgs[i] = Subgroup{Value: dataset.ValueID(len(sgs) - i), Counts: []int{i, 1 << 33, -i}}
			}
			return sgs
		}()},
	} {
		assertDigest(t, label, rm)
	}
}

// digestFuzzMap decodes a fuzz input into a rating map: a scale, then per
// subgroup a value byte (kept only if new, so the order of equal values,
// which no map has, is never at stake) and scale count bytes.
func digestFuzzMap(attr string, side, dim, total int, data []byte) *RatingMap {
	rm := &RatingMap{Key: Key{Side: query.Side(side), Attr: attr, Dim: dim}, TotalRecords: total}
	if len(data) == 0 {
		return rm
	}
	scale := int(data[0] % 8)
	data = data[1:]
	seen := map[dataset.ValueID]bool{}
	for len(data) > scale {
		v, row := dataset.ValueID(data[0])<<(data[0]%24), data[1:1+scale]
		data = data[1+scale:]
		if seen[v] {
			continue
		}
		seen[v] = true
		sg := Subgroup{Value: v, Counts: make([]int, scale)}
		for i, c := range row {
			sg.Counts[i] = int(c) << (c % 40)
			sg.N += sg.Counts[i]
		}
		rm.Subgroups = append(rm.Subgroups, sg)
	}
	return rm
}

// FuzzDigest compares Digest with the reference on arbitrary keys, totals
// (negative ones too: the verbs it replaced print them) and subgroup lists.
func FuzzDigest(f *testing.F) {
	f.Add("city", 1, 0, 300, []byte{5, 2, 1, 2, 3, 4, 5, 1, 9, 8, 7, 6, 5})
	f.Add("", 0, 0, 0, []byte{})
	f.Add("gender", 0, 3, -1, []byte{0, 7, 3, 1})
	f.Add("a.dim0|n=1|", -2, -7, 1<<40, []byte{3, 200, 255, 0, 39, 100, 1, 1, 1, 200, 2, 2, 2})
	f.Fuzz(func(t *testing.T, attr string, side, dim, total int, data []byte) {
		rm := digestFuzzMap(attr, side, dim, total, data)
		assertDigest(t, "as decoded", rm)
		assertDigest(t, "by value", inValueOrder(rm))
	})
}

// BenchmarkDigest renders a displayed map's digest, reference against
// Digest, at a demo-sized and a Yelp-city-sized bar count.
//
//	go test ./internal/ratingmap -run '^$' -bench Digest -benchmem
func BenchmarkDigest(b *testing.B) {
	for _, bars := range []int{5, 50} {
		rm := &RatingMap{Key: Key{Side: query.ItemSide, Attr: "neighborhood", Dim: 1}}
		for i := 0; i < bars; i++ {
			// Score order scatters the values, as on a displayed map.
			sg := Subgroup{Value: dataset.ValueID(i * 37 % bars), Counts: []int{i, 12 * i, 340, 1200 + i, 77}}
			rm.Subgroups = append(rm.Subgroups, sg)
			rm.TotalRecords += 1617 + 14*i
		}
		for _, arm := range []struct {
			name   string
			digest func(*RatingMap) string
		}{{"reference", digestReference}, {"digest", (*RatingMap).Digest}} {
			b.Run(fmt.Sprintf("%s/bars=%d", arm.name, bars), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					digestSink = arm.digest(rm)
				}
			})
		}
	}
}

var digestSink string
