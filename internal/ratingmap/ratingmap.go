// Package ratingmap implements rating distributions and rating maps
// (Definitions 1-2 of the paper), their interestingness criteria —
// conciseness, agreement, self peculiarity, global peculiarity (§3.2.3,
// §4.1) — and the dimension-weighted utility of Equation 1.
//
// A rating map is the result of a GroupBy over a rating group g_R on a
// single reviewer or item attribute, aggregated on one rating dimension:
// each subgroup carries its rating distribution and average score.
package ratingmap

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"subdex/internal/dataset"
	"subdex/internal/query"
	"subdex/internal/stats"
)

// Key identifies a candidate rating map: the grouping attribute (on one
// side) and the rating dimension aggregated.
type Key struct {
	Side query.Side
	Attr string
	Dim  int // index into the rating table's dimensions
}

// String renders the key as e.g. "GROUPBY items.city AGG food".
func (k Key) String() string {
	return fmt.Sprintf("GROUPBY %s.%s AGG dim%d", k.Side, k.Attr, k.Dim)
}

// Subgroup is one bar of the rating map: the records of g_R whose grouping
// attribute has the given value, with their score histogram.
type Subgroup struct {
	Value dataset.ValueID
	// Counts[s-1] is the number of records with score s; length = scale m.
	Counts []int
	N      int
}

// AvgScore returns the subgroup's aggregated (average) score, the single
// number the paper's rating maps attach to each subgroup. Records with a
// missing score are excluded by construction.
func (sg *Subgroup) AvgScore() float64 {
	if sg.N == 0 {
		return 0
	}
	sum := 0
	for i, c := range sg.Counts {
		sum += (i + 1) * c
	}
	return float64(sum) / float64(sg.N)
}

// ModeScore returns the subgroup's most frequent rating value — the
// "highest probability for the rating dimension" aggregation Definition 2
// names as an alternative to the average. Ties break toward the lower
// rating; an empty subgroup returns 0.
func (sg *Subgroup) ModeScore() int {
	best, bestCount := 0, 0
	for i, c := range sg.Counts {
		if c > bestCount {
			best, bestCount = i+1, c
		}
	}
	return best
}

// RatingMap is a materialized rating map rm(g_R, r_i).
type RatingMap struct {
	Key
	DimName string
	Scale   int
	// Desc is the description of the underlying rating group.
	Desc query.Description
	// Subgroups are sorted by descending average score, as displayed in the
	// paper's Figure 3 tables.
	Subgroups []Subgroup
	// TotalRecords is |g_R| counted with multiplicity for multi-valued
	// grouping attributes (a record in two cuisines appears in two bars).
	TotalRecords int

	// total is the pooled histogram across subgroups. Its capacity runs on
	// over the array every subgroup's Counts is cut from (SnapshotInto), so
	// nothing may append to it.
	total []int
}

// Dict resolves subgroup values to display strings; set by the builder.
type Dict interface {
	Value(dataset.ValueID) string
}

// Distribution returns the rating distribution of the whole map (pooled
// across subgroups), the reference distribution for self peculiarity and the
// object compared by global peculiarity and EMD-based diversity.
func (rm *RatingMap) Distribution() stats.Distribution {
	return stats.NewDistributionFromCounts(rm.total)
}

// AppendDistribution appends Distribution() to dst: with a dst cut from an
// array on its stack, a caller that compares and drops it allocates nothing.
func (rm *RatingMap) AppendDistribution(dst stats.Distribution) stats.Distribution {
	return stats.AppendDistributionFromCounts(dst, rm.total)
}

// AppendSignature computes the distribution of subgroup average scores, weighted
// by subgroup size, with fractional averages split linearly between the
// neighbouring scale bins. Unlike the pooled Distribution — which is
// identical for every grouping of the same records on the same dimension —
// the signature reflects the grouping structure itself, so it can tell
// "GroupBy neighborhood" apart from "GroupBy parking" even on one
// dimension. The diversity distance combines both. The signature is
// appended to dst, like AppendDistribution.
func (rm *RatingMap) AppendSignature(dst stats.Distribution) stats.Distribution {
	for i := 0; i < rm.Scale; i++ {
		dst = append(dst, 0)
	}
	sig := dst[len(dst)-rm.Scale:]
	total := 0.0
	for i := range rm.Subgroups {
		sg := &rm.Subgroups[i]
		if sg.N == 0 {
			continue
		}
		avg := sg.AvgScore() // in [1, scale]
		pos := avg - 1       // in [0, scale-1]
		lo := int(pos)
		frac := pos - float64(lo)
		w := float64(sg.N)
		if lo >= rm.Scale-1 {
			sig[rm.Scale-1] += w
		} else {
			sig[lo] += w * (1 - frac)
			sig[lo+1] += w * frac
		}
		total += w
	}
	if total == 0 {
		sig.Normalize()
		return dst
	}
	for i := range sig {
		sig[i] /= total
	}
	return dst
}

// Render formats the map as the tabular view of Figure 3.
func (rm *RatingMap) Render(dict Dict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "GroupBy %s.%s, aggregated by %s score\n", rm.Side, rm.Attr, rm.DimName)
	fmt.Fprintf(&b, "%-20s %12s %-28s %10s\n", rm.Attr, "# of records", "rating distribution", "avg. score")
	for _, sg := range rm.Subgroups {
		label := fmt.Sprintf("%d", sg.Value)
		if dict != nil {
			label = dict.Value(sg.Value)
		}
		var dist strings.Builder
		dist.WriteByte('{')
		for s, c := range sg.Counts {
			if s > 0 {
				dist.WriteByte(',')
			}
			fmt.Fprintf(&dist, "%d:%d", s+1, c)
		}
		dist.WriteByte('}')
		fmt.Fprintf(&b, "%-20s %12d %-28s %10.1f\n", label, sg.N, dist.String(), sg.AvgScore())
	}
	return b.String()
}

// Builder materializes rating maps over a database. It implements the
// "Combining Multiple Aggregates" sharing optimization of §4.2.1: one scan
// of a record range updates the partial results of every candidate map that
// groups by the same attribute, across all rating dimensions.
type Builder struct {
	DB *dataset.DB
}

// partial accumulates one candidate map across phases. hist is the dense
// [NValues × (scale+1)] counter block the scan kernel increments: cell
// v*(scale+1)+s counts the records of subgroup value v with score s. Row 0
// (missing value) and column 0 (missing score) are discard cells — the
// kernel writes them instead of branching per record, and every reader
// goes through rows, which skips them. The block is sized once, from the
// attribute's dictionary, when the partial is built.
type partial struct {
	key   Key
	scale int
	hist  []int32
}

// rows calls fn for every subgroup of the candidate in ascending value
// order: a subgroup exists iff its row holds a scored record. counts are
// the row's score columns (counts[s-1] = records with score s), n their
// sum. It starts at row 1: this is the one place that decides the missing
// value is never a bar, so no reader of a RatingMap checks for one
// (TestNoMissingValueBar).
func (p *partial) rows(fn func(v dataset.ValueID, counts []int32, n int)) {
	stride := p.scale + 1
	for base := stride; base < len(p.hist); base += stride {
		counts := p.hist[base+1 : base+stride]
		n := 0
		for _, c := range counts {
			n += int(c)
		}
		if n > 0 {
			fn(dataset.ValueID(base/stride), counts, n)
		}
	}
}

// Accumulator holds the in-progress subgroup histograms of a set of
// candidate maps sharing scans. Candidates are addressed by position:
// parts[i] is the partial of Keys()[i], through every Remove, Merge and
// decoded frame. The engine's phase loop calls Update once per phase with
// the next record fraction.
type Accumulator struct {
	db    *dataset.DB
	order []Key
	parts []partial
	// groups are the shared scans, one per distinct grouping attribute of
	// the schema in first-registration order. A candidate whose attribute
	// is outside the schema belongs to none: no scan reaches it.
	groups []attrGroup
	desc   query.Description
	// slab and positions are the two arrays carve cuts every candidate's
	// block and every attribute's member list out of, kept so that Recycle
	// can cut the next candidate set out of them again.
	slab      []int32
	positions []int32

	// recordVisits counts len(records) once per attribute group per Update
	// — the (record, attribute) lookups a scan of the group's records
	// performs, which the "Combining Multiple Aggregates" optimization keeps
	// independent of how many rating dimensions share the attribute. It is
	// the paper's unit of shared work, not the kernel's: the direct strategy
	// passes over the batch once per (attribute, dimension), the fold once
	// per (side, dimension) — kernel.go.
	recordVisits int
}

// attrGroup is one grouping attribute, resolved against the database once,
// when its first candidate is registered: its table, the per-record
// entity-row column, its schema index, its flat column, its dictionary
// length — and the positions in parts of the candidates grouping by it.
type attrGroup struct {
	t       *dataset.EntityTable
	rowOf   []int32
	ai      int
	col     *dataset.AttrColumn
	nValues int
	members []int32
}

// NewAccumulator prepares shared accumulation for the given candidate keys
// over the rating group described by desc. The recommendation pass builds
// an accumulator of ~90 candidates for every candidate operation, so
// construction is five allocations and one attribute resolution per run of
// keys sharing an attribute (Generator.Candidates lists an attribute's
// dimensions together): all blocks are carved out of one slab — each with
// its capacity clipped to its length, so no block can grow into the next —
// and all member lists out of one index array.
func (b *Builder) NewAccumulator(desc query.Description, keys []Key) *Accumulator {
	acc := b.emptyAccumulator(desc)
	acc.carve(keys)
	return acc
}

// Recycle makes acc what NewAccumulator(desc, keys) returns — same keys,
// every cell zero, no record visited — inside the arrays acc already holds:
// each is reused when its capacity covers the new candidate set, whatever
// set, description or database it served before, and replaced when not. It
// is for an accumulator nothing else can reach: whatever was read out of it
// must have been copied (SnapshotInto does). The zero Accumulator recycles
// into a fresh one.
//
// Unlike NewAccumulator, Recycle first grows acc's arrays to the schema's
// whole candidate set (reserve), so a pooled accumulator fits any key set
// of its database from then on. Grown only to the keys it served, its
// arrays would be replaced each time a larger set came by, and a
// recommendation pass's candidate sets differ in size from target to
// target.
func (b *Builder) Recycle(acc *Accumulator, desc query.Description, keys []Key) {
	b.mustBeFrozen()
	acc.db, acc.desc, acc.recordVisits = b.DB, desc, 0
	acc.reserve()
	acc.carve(keys)
}

// reserve grows the arrays carve cuts from to the capacity of the schema's
// whole candidate set — every attribute of both sides on every dimension —
// and leaves larger ones as they are.
func (a *Accumulator) reserve() {
	dims := a.db.Ratings.Dimensions
	n, cells := 0, 0
	for _, t := range [2]*dataset.EntityTable{a.db.Reviewers, a.db.Items} {
		for ai := 0; ai < t.Schema.Len(); ai++ {
			nValues := t.Dict(ai).Len()
			for _, d := range dims {
				cells += nValues * (d.Scale + 1)
			}
			n += len(dims)
		}
	}
	a.order = slices.Grow(a.order[:0], n)
	a.parts = slices.Grow(a.parts[:0], n)
	a.positions = slices.Grow(a.positions[:0], n)
	if cap(a.slab) < cells {
		a.slab = make([]int32, 0, cells)
	}
}

// carve registers keys in order and gives every candidate of the schema a
// zeroed block, reusing the accumulator's arrays by capacity. Nothing a
// previous candidate set left behind survives: order, parts and positions
// are overwritten element by element, groups refilled, the slab cleared.
func (a *Accumulator) carve(keys []Key) {
	a.order = append(a.order[:0], keys...)
	a.parts = slices.Grow(a.parts[:0], len(keys))[:len(keys)]
	a.groups = slices.Grow(a.groups[:0], a.db.Reviewers.Schema.Len()+a.db.Items.Schema.Len())
	a.positions = slices.Grow(a.positions[:0], len(keys))[:len(keys)]
	cells := 0
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		for hi = lo + 1; hi < len(keys) && keys[hi].Side == keys[lo].Side && keys[hi].Attr == keys[lo].Attr; hi++ {
		}
		g := a.groupOf(keys[lo])
		for i := lo; i < hi; i++ {
			a.positions[i] = int32(i)
			a.parts[i] = partial{key: keys[i], scale: a.db.Ratings.Dimensions[keys[i].Dim].Scale}
			if g != nil {
				cells += g.nValues * (a.parts[i].scale + 1)
			}
		}
		if g != nil && g.members == nil {
			g.members = a.positions[lo:hi:hi]
		} else if g != nil { // the attribute's keys were not contiguous
			g.members = append(g.members, a.positions[lo:hi]...)
		}
	}
	if cap(a.slab) < cells {
		a.slab = make([]int32, cells)
	} else {
		a.slab = a.slab[:cells]
		clear(a.slab)
	}
	slab := a.slab
	for gi := range a.groups {
		g := &a.groups[gi]
		for _, i := range g.members {
			n := g.nValues * (a.parts[i].scale + 1)
			a.parts[i].hist, slab = slab[:n:n], slab[n:]
		}
	}
}

// Bytes is the heap the accumulator holds: the capacity of its key order,
// its partials, its member positions, its attribute groups and the slab
// carve cuts the counter blocks from, and of every block register made on
// its own. Capacity, not the candidates' share of it: a recycled
// accumulator holds its schema's whole candidate set whatever keys it
// serves (Builder.Recycle). It is what an accumulator-cache entry is
// charged.
func (a *Accumulator) Bytes() int {
	const cell = int(unsafe.Sizeof(int32(0)))
	n := cap(a.order)*int(unsafe.Sizeof(Key{})) + cap(a.parts)*int(unsafe.Sizeof(partial{})) +
		cap(a.groups)*int(unsafe.Sizeof(attrGroup{})) + (cap(a.positions)+cap(a.slab))*cell
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(a.slab)))
	hi := lo + uintptr(cap(a.slab)*cell)
	for i := range a.parts {
		h := a.parts[i].hist
		if at := uintptr(unsafe.Pointer(unsafe.SliceData(h))); cap(h) > 0 && (at < lo || at >= hi) {
			n += cap(h) * cell
		}
	}
	return n
}

// emptyAccumulator is the one place an Accumulator is constructed, for
// scans and for decoded wire frames alike.
func (b *Builder) emptyAccumulator(desc query.Description) *Accumulator {
	b.mustBeFrozen()
	return &Accumulator{db: b.DB, desc: desc}
}

// mustBeFrozen guards every way an Accumulator comes to observe b's
// database. The scan kernel reads the flat columns Freeze builds, so an
// unfrozen database is a caller's bug — as it is for query.NewEngine, which
// every scanned group comes from.
func (b *Builder) mustBeFrozen() {
	if !b.DB.Frozen() {
		panic("ratingmap: database " + b.DB.Name + " is not frozen")
	}
}

// groupOf returns the shared scan of a candidate's attribute, resolving and
// adding it on first sight, or nil for an attribute outside the schema. The
// pointer is good until the next call.
func (a *Accumulator) groupOf(k Key) *attrGroup {
	t, rowOf := a.db.Items, a.db.Ratings.Item
	if k.Side == query.ReviewerSide {
		t, rowOf = a.db.Reviewers, a.db.Ratings.Reviewer
	}
	ai := t.Schema.Index(k.Attr)
	if ai < 0 {
		return nil
	}
	for gi := range a.groups {
		if g := &a.groups[gi]; g.t == t && g.ai == ai {
			return g
		}
	}
	a.groups = append(a.groups, attrGroup{t: t, rowOf: rowOf, ai: ai, col: t.Column(ai), nValues: t.Dict(ai).Len()})
	return &a.groups[len(a.groups)-1]
}

// register appends a candidate at the end of the key order, with an empty
// block of its own, and returns its partial (good until the next call).
func (a *Accumulator) register(k Key) *partial {
	p := partial{key: k, scale: a.db.Ratings.Dimensions[k.Dim].Scale}
	if g := a.groupOf(k); g != nil {
		g.members = append(g.members, int32(len(a.parts)))
		p.hist = make([]int32, g.nValues*(p.scale+1))
	}
	a.parts = append(a.parts, p)
	a.order = append(a.order, k)
	return &a.parts[len(a.parts)-1]
}

// index returns the position of a candidate key in Keys(), or -1.
func (a *Accumulator) index(k Key) int { return slices.Index(a.order, k) }

// Keys returns the candidate keys in registration order.
func (a *Accumulator) Keys() []Key { return a.order }

// Remove drops a candidate from accumulation, the effect of pruning: later
// phases no longer pay for its histogram updates. Removing the last
// candidate of an attribute removes the attribute's shared scan entirely.
// The candidates after it move up one position, in Keys() and parts alike.
func (a *Accumulator) Remove(k Key) {
	at := a.index(k)
	if at < 0 {
		return
	}
	a.order = slices.Delete(a.order, at, at+1)
	a.parts = slices.Delete(a.parts, at, at+1)
	for gi := range a.groups {
		g := &a.groups[gi]
		g.members = slices.DeleteFunc(g.members, func(i int32) bool { return int(i) == at })
		for j, i := range g.members {
			if int(i) > at {
				g.members[j]--
			}
		}
	}
	a.groups = slices.DeleteFunc(a.groups, func(g attrGroup) bool { return len(g.members) == 0 })
}

// SnapshotAt is Snapshot of candidate Keys()[i] in a map of its own:
// SnapshotInto(nil, i).
func (a *Accumulator) SnapshotAt(i int) *RatingMap { return a.SnapshotInto(nil, i) }

// SnapshotInto writes Snapshot of candidate Keys()[i] over rm and returns
// it; a nil rm gets a new map. The engine materializes k′ maps per call —
// thousands a step under recommendations — so the pooled histogram and
// every subgroup's Counts are cut from one array (total, its capacity the
// whole array; each Counts clipped to its scale), and the map's subgroup
// list and that array are reused when their capacity covers the
// candidate's bars. A new map is three allocations whatever its bar count
// (two without a bar); a map that fits is none. Whatever rm held before is
// overwritten: nothing may still read it.
func (a *Accumulator) SnapshotInto(rm *RatingMap, i int) *RatingMap {
	p := &a.parts[i]
	bars := 0
	p.rows(func(dataset.ValueID, []int32, int) { bars++ })
	if rm == nil {
		rm = new(RatingMap)
	}
	counts := rm.total[:cap(rm.total)]
	if n := (bars + 1) * p.scale; len(counts) < n {
		counts = make([]int, n)
	} else {
		counts = counts[:n]
		clear(counts[:p.scale]) // the bars' Counts are written whole
	}
	subgroups := rm.Subgroups[:0]
	if subgroups == nil || cap(subgroups) < bars {
		subgroups = make([]Subgroup, 0, bars)
	}
	*rm = RatingMap{
		Key:       p.key,
		DimName:   a.db.Ratings.Dimensions[p.key.Dim].Name,
		Scale:     p.scale,
		Desc:      a.desc,
		Subgroups: subgroups,
		total:     counts[:p.scale],
	}
	p.rows(func(v dataset.ValueID, row []int32, n int) {
		counts = counts[p.scale:]
		sg := Subgroup{Value: v, Counts: counts[:p.scale:p.scale], N: n}
		for s, c := range row {
			sg.Counts[s] = int(c)
			rm.total[s] += int(c)
		}
		rm.TotalRecords += n
		rm.Subgroups = append(rm.Subgroups, sg)
	})
	slices.SortFunc(rm.Subgroups, func(x, y Subgroup) int {
		if c := cmp.Compare(y.AvgScore(), x.AvgScore()); c != 0 {
			return c
		}
		return cmp.Compare(x.Value, y.Value)
	})
	return rm
}

// Build materializes every candidate in one pass over all records of the
// group — the unshared, unpruned path used by the Naive engine variant and
// by tests as ground truth.
func (b *Builder) Build(desc query.Description, records []int32, keys []Key) []*RatingMap {
	acc := b.NewAccumulator(desc, keys)
	acc.Update(records)
	out := make([]*RatingMap, 0, len(keys))
	for i := range keys {
		out = append(out, acc.SnapshotAt(i))
	}
	return out
}
