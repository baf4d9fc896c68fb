package query

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"subdex/internal/dataset"
)

// RatingGroup is a materialized group g_R: the rating records whose reviewer
// belongs to the reviewer group g_U and whose item belongs to the item group
// g_I defined by a Description (§3.1).
type RatingGroup struct {
	Desc Description
	// Records holds positions into the database's rating table, ascending.
	Records []int32
	// Reviewers and Items are the matching entity row sets.
	Reviewers *Bitset
	Items     *Bitset
}

// Len returns the number of rating records in the group.
func (g *RatingGroup) Len() int { return len(g.Records) }

// Engine materializes descriptions against a database — per-selector entity
// bitsets, cached, intersected into the two entity groups, then the records
// of the smaller one gathered from the database's record index in table
// order (gather) — and partitions a group's records by an attribute
// (Partition), which is how the Recommendation Builder gets its candidates'
// groups without materializing them. The caches are guarded: sessions share
// an engine and materialize concurrently.
type Engine struct {
	DB *dataset.DB

	mu       sync.RWMutex
	selCache map[string]*Bitset
	groups   *groupCache // optional group and partition cache (EnableGroupCache)
}

// NewEngine wraps a frozen database.
func NewEngine(db *dataset.DB) (*Engine, error) {
	if !db.Frozen() {
		return nil, fmt.Errorf("query: database %q is not frozen", db.Name)
	}
	return &Engine{DB: db, selCache: make(map[string]*Bitset)}, nil
}

// table returns the entity table of a side.
func (e *Engine) table(side Side) *dataset.EntityTable {
	if side == ReviewerSide {
		return e.DB.Reviewers
	}
	return e.DB.Items
}

// Validate checks that every selector references an existing attribute and a
// registered value of that attribute.
func (e *Engine) Validate(d Description) error {
	for _, s := range d.Selectors() {
		t := e.table(s.Side)
		a := t.Schema.Index(s.Attr)
		if a < 0 {
			return fmt.Errorf("query: %s has no attribute %q", s.Side, s.Attr)
		}
		if _, ok := t.Dict(a).Lookup(s.Value); !ok {
			return fmt.Errorf("query: %s.%s has no value %q", s.Side, s.Attr, s.Value)
		}
	}
	return nil
}

// selectorBitset returns the entity rows matching one selector, cached. It
// reads the frozen flat column, as the scan kernel and Partition do.
func (e *Engine) selectorBitset(s Selector) (*Bitset, error) {
	e.mu.RLock()
	b, ok := e.selCache[s.Key()]
	e.mu.RUnlock()
	if ok {
		return b, nil
	}
	t := e.table(s.Side)
	a := t.Schema.Index(s.Attr)
	if a < 0 {
		return nil, fmt.Errorf("query: %s has no attribute %q", s.Side, s.Attr)
	}
	v, ok := t.Dict(a).Lookup(s.Value)
	if !ok {
		return nil, fmt.Errorf("query: %s.%s has no value %q", s.Side, s.Attr, s.Value)
	}
	col := t.Column(a) // non-nil: NewEngine only wraps a frozen database
	b = NewBitset(t.Len())
	if col.Kind == dataset.Atomic {
		for row, x := range col.Values {
			if x == v {
				b.Set(row)
			}
		}
	} else {
		for row := 0; row < t.Len(); row++ {
			if slices.Contains(col.Values[col.Offsets[row]:col.Offsets[row+1]], v) {
				b.Set(row)
			}
		}
	}
	e.mu.Lock()
	e.selCache[s.Key()] = b
	e.mu.Unlock()
	return b, nil
}

// EntityGroup materializes one side of a description as a row bitset.
func (e *Engine) EntityGroup(d Description, side Side) (*Bitset, error) {
	sels := d.SideSelectors(side)
	acc := FullBitset(e.table(side).Len())
	for _, s := range sels {
		b, err := e.selectorBitset(s)
		if err != nil {
			return nil, err
		}
		acc.IntersectWith(b)
	}
	return acc, nil
}

// Materialize evaluates a description into a rating group. Its records are
// collected one of two ways, chosen from how much of the rating table the
// first would visit (sweepPays): the records of the smaller entity side,
// read from its record index and kept when the other side's bitset admits
// them (gather), so narrow selections stay cheap; or one pass over the
// rating table in order (sweep), when the index walk would visit a large
// share of it anyway. Either way they come back ascending without a sort,
// in a slice of exactly their number. With the group cache enabled
// (EnableGroupCache), repeated selections are served from memory; the
// returned group must then be treated as immutable.
func (e *Engine) Materialize(d Description) (*RatingGroup, error) {
	g, _, err := e.MaterializeCached(d)
	return g, err
}

// entityGroups materializes both sides of a description: a rating group
// without its records.
func (e *Engine) entityGroups(d Description) (*RatingGroup, error) {
	ug, err := e.EntityGroup(d, ReviewerSide)
	if err != nil {
		return nil, err
	}
	ig, err := e.EntityGroup(d, ItemSide)
	if err != nil {
		return nil, err
	}
	return &RatingGroup{Desc: d, Reviewers: ug, Items: ig}, nil
}

func (e *Engine) materialize(d Description) (*RatingGroup, error) {
	g, err := e.entityGroups(d)
	if err != nil {
		return nil, err
	}
	switch {
	case g.Reviewers.Count() == 0 || g.Items.Count() == 0:
		// empty group
	case d.IsEmpty():
		g.Records = make([]int32, e.DB.Ratings.Len())
		for r := range g.Records {
			g.Records[r] = int32(r)
		}
	default:
		from, recordsOf, other, otherOf := e.walkSides(g.Reviewers, g.Items)
		if e.sweepPays(from, recordsOf) {
			g.Records = e.sweep(g.Reviewers, g.Items)
		} else {
			g.Records = e.gather(from, recordsOf, other, otherOf)
		}
	}
	return g, nil
}

// walkSides orders the two entity groups for the index walk: the side with
// fewer matching entities is walked (from, its record index recordsOf) and
// each of its records is tested against the other (other, and the rating
// table's column otherOf naming each record's entity on that side).
func (e *Engine) walkSides(ug, ig *Bitset) (from *Bitset, recordsOf func(int) []int32, other *Bitset, otherOf []int32) {
	if ug.Count() <= ig.Count() {
		return ug, e.DB.RecordsOfReviewer, ig, e.DB.Ratings.Item
	}
	return ig, e.DB.RecordsOfItem, ug, e.DB.Ratings.Reviewer
}

// sweepCrossover is the share of the rating table, as 1/sweepCrossover, the
// index walk must be about to visit before the sweep replaces it: more than
// half. Measured, not tuned — BenchmarkMaterialize's index and sweep arms on
// the Yelp, MovieLens and Hotels shapes (datasets_test.go). A walk that
// keeps every record it visits (one side unconstrained: the item1_* and
// reviewer1_55 arms) is the walk at its cheapest per record, and it meets
// the sweep between 0.45 and 0.55 of the table on all three shapes (index /
// sweep 0.86 at 0.43 and 1.04 at 0.56 on Yelp, 0.89 at 0.33 and 1.03 at
// 0.55 on MovieLens, 0.96 at 0.46 on Hotels). A walk whose other side
// rejects most of what it visits mispredicts its Has and meets the sweep
// sooner (both_31 0.99, both_42 1.22, Hotels' both_43 0.98), but the
// visited share cannot tell the two apart, and between a third and a half
// of the table neither strategy is more than a quarter ahead. Past half the
// sweep is never the slower, up to 3.8x the faster (reviewer1) — and past
// half is where every reviewer selection on Yelp- and Hotels-shaped data
// sits, at 1.0.
const sweepCrossover = 2

// sweepPays reports whether the index walk from these entities would visit
// more than 1/sweepCrossover of the rating table — the sum of their
// record-list lengths, which stops at the first entity that takes it past
// the mark. The walk visits records the other side then rejects, so this is
// the walk's cost, not the group's size: any reviewer selection on 93 items
// visits the whole table.
func (e *Engine) sweepPays(from *Bitset, recordsOf func(int) []int32) bool {
	limit := e.DB.Ratings.Len() / sweepCrossover
	visited := 0
	for wi, w := range from.words {
		for ; w != 0; w &= w - 1 {
			visited += len(recordsOf(wi*64 + bits.TrailingZeros64(w)))
			if visited > limit {
				return true
			}
		}
	}
	return false
}

// sweep returns, ascending, the records whose reviewer is in ug and whose
// item is in ig by one pass over the rating table in order. The two
// membership tests of a record are a shift and a mask each, and-ed into one
// bit with no branch to mispredict (a pass that branches on them loses to
// the walk: DESIGN.md "Limitations"); 64 records make one word of the
// record bitmap, assembled in a register, stored once and counted, and the
// bitmap is read out into a slice of exactly that count.
func (e *Engine) sweep(ug, ig *Bitset) []int32 {
	reviewer, item := e.DB.Ratings.Reviewer, e.DB.Ratings.Item
	uw, iw := ug.words, ig.words
	n := len(reviewer)
	marks := NewBitset(n)
	count := 0
	for wi := range marks.words {
		lo := wi * 64
		hi := min(lo+64, n)
		us, is := reviewer[lo:hi], item[lo:hi]
		is = is[:len(us)] // is[k] needs no bounds check below
		var w uint64
		for k, u := range us {
			u, i := uint32(u), uint32(is[k])
			w |= (uw[u>>6] >> (u & 63) & (iw[i>>6] >> (i & 63)) & 1) << (uint(k) & 63)
		}
		marks.words[wi] = w
		count += bits.OnesCount64(w)
	}
	return marks.Elements(make([]int32, 0, count))
}

// gather returns, ascending, the records of the entities in from whose
// entity on the other side — otherOf[r] — is in other. The index hands the
// records over entity by entity, which is not table order; marking them in
// a bitmap over the rating table and reading the bitmap out restores it
// without a sort, and sizes the result exactly. The bitmap costs an
// allocation and a pass over its words however few records it holds, so the
// first records gathered wait in a list, and a gather that never outgrows
// the list is sorted instead. The list holds a quarter as many records as
// the bitmap has words: at 3 000, 50 000 and 200 000 ratings alike, the sort
// becomes the slower of the two between 0.2 and 0.3 records a word.
func (e *Engine) gather(from *Bitset, recordsOf func(int) []int32, other *Bitset, otherOf []int32) []int32 {
	n := e.DB.Ratings.Len()
	limit := (n + 63) / 64 / 4
	var few []int32
	var marks *Bitset
	for wi, w := range from.words {
		for ; w != 0; w &= w - 1 {
			for _, r := range recordsOf(wi*64 + bits.TrailingZeros64(w)) {
				switch {
				case !other.Has(int(otherOf[r])):
				case marks != nil:
					marks.Set(int(r))
				case len(few) < limit:
					few = append(few, r)
				default:
					marks = NewBitset(n)
					for _, f := range few {
						marks.Set(int(f))
					}
					marks.Set(int(r))
				}
			}
		}
	}
	if marks == nil {
		slices.Sort(few)
		return slices.Clip(few)
	}
	return marks.Elements(make([]int32, 0, marks.Count()))
}

// GroupingCandidate describes one way to partition a rating group: by an
// attribute of the reviewer or item table that is not already bound by the
// group's description.
type GroupingCandidate struct {
	Side Side
	Attr string
}

// GroupingCandidates lists the attributes a rating map may group the given
// description by. Attributes already bound to a value are excluded — their
// partition would be a single subgroup.
func (e *Engine) GroupingCandidates(d Description) []GroupingCandidate {
	var out []GroupingCandidate
	for _, side := range []Side{ReviewerSide, ItemSide} {
		t := e.table(side)
		for a := 0; a < t.Schema.Len(); a++ {
			name := t.Schema.At(a).Name
			if d.BindsAttr(side, name) {
				continue
			}
			if t.ValueCardinality(a) < 2 {
				continue
			}
			out = append(out, GroupingCandidate{Side: side, Attr: name})
		}
	}
	return out
}

// AttributeValues returns the registered values of an attribute, sorted.
func (e *Engine) AttributeValues(side Side, attr string) ([]string, error) {
	t := e.table(side)
	a := t.Schema.Index(attr)
	if a < 0 {
		return nil, fmt.Errorf("query: %s has no attribute %q", side, attr)
	}
	return t.Dict(a).Values(), nil
}
