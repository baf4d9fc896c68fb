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

// Engine materializes descriptions and partitions a group's records by an
// attribute (Partition), which is how the Recommendation Builder gets its
// candidates' groups without materializing them. A description is
// materialized from per-selector sets, each built on the selector's first
// use and cached: the entity groups are the AND of its selectors' entity
// sets (entitySet), and its records the AND of its selectors' record sets
// over the rating table (recordSet). The caches hold only what has been
// selected, ⌈|E|/64⌉ + ⌈|R|/64⌉ words a selector, whatever the size of the
// attribute's dictionary. They and the group cache are guarded: sessions
// share an engine and materialize concurrently.
type Engine struct {
	DB *dataset.DB

	mu       sync.RWMutex
	entities map[selKey]*Bitset // by selector: the entity rows holding its value
	records  map[selKey]*Bitset // by selector: the records whose entity holds its value
	groups   *groupCache        // optional group and partition cache (EnableGroupCache)
}

// NewEngine wraps a frozen database.
func NewEngine(db *dataset.DB) (*Engine, error) {
	if !db.Frozen() {
		return nil, fmt.Errorf("query: database %q is not frozen", db.Name)
	}
	return &Engine{DB: db, entities: make(map[selKey]*Bitset), records: make(map[selKey]*Bitset)}, nil
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
		if _, err := e.lookup(s); err != nil {
			return err
		}
	}
	return nil
}

// lookup resolves a selector to its cache key: the position of its
// attribute in its entity table and its value's id.
func (e *Engine) lookup(s Selector) (selKey, error) {
	t := e.table(s.Side)
	a := t.Schema.Index(s.Attr)
	if a < 0 {
		return selKey{}, fmt.Errorf("query: %s has no attribute %q", s.Side, s.Attr)
	}
	v, ok := t.Dict(a).Lookup(s.Value)
	if !ok {
		return selKey{}, fmt.Errorf("query: %s.%s has no value %q", s.Side, s.Attr, s.Value)
	}
	return selKey{s.Side, a, v}, nil
}

// selKey names one selector: a value id of one attribute of one side.
type selKey struct {
	side Side
	attr int
	v    dataset.ValueID
}

// entitySet returns the entity rows that hold a selector's value, built on
// first use in one pass over the frozen flat column, as the scan kernel and
// Partition read it: an atomic row holds one value id, a multi-valued row
// the CSR run of its set. Missing cells hold value id 0. An atomic column
// is read a word of rows at a time, last row first, shifting in one bit a
// row: no branch on the data, and a quarter of the time a branch and a Set
// a row took over a Yelp-shaped round of cold steps.
func (e *Engine) entitySet(k selKey) *Bitset {
	return e.selectorSet(e.entities, k, func() *Bitset {
		t := e.table(k.side)
		col := t.Column(k.attr) // non-nil: NewEngine only wraps a frozen database
		b := NewBitset(t.Len())
		if col.Kind == dataset.Atomic {
			for wi := range b.words {
				chunk := col.Values[wi*64 : min(wi*64+64, len(col.Values))]
				var w uint64
				for j := len(chunk) - 1; j >= 0; j-- {
					var bit uint64
					if chunk[j] == k.v {
						bit = 1
					}
					w = w<<1 | bit
				}
				b.words[wi] = w
			}
			return b
		}
		for row := 0; row < t.Len(); row++ {
			if slices.Contains(col.Values[col.Offsets[row]:col.Offsets[row+1]], k.v) {
				b.Set(row)
			}
		}
		return b
	})
}

// recordSet returns the rating records whose entity holds a selector's
// value, built on first use from the selector's entity set and the
// database's per-entity record index: one bit set a record of the
// selector's entities. Over every value of Yelp-shaped data that is 2.2x
// faster than a pass over the whole rating table's entity column a
// selector.
func (e *Engine) recordSet(k selKey) *Bitset {
	return e.selectorSet(e.records, k, func() *Bitset {
		recordsOf := e.DB.RecordsOfReviewer
		if k.side == ItemSide {
			recordsOf = e.DB.RecordsOfItem
		}
		b := NewBitset(e.DB.Ratings.Len())
		for wi, w := range e.entitySet(k).words {
			for ; w != 0; w &= w - 1 {
				for _, r := range recordsOf(wi*64 + bits.TrailingZeros64(w)) {
					b.words[r>>6] |= 1 << (uint32(r) & 63)
				}
			}
		}
		return b
	})
}

// selectorSet returns m's bitset for k, building it on a miss. Two
// sessions may build one at once; the first to arrive is kept, as in keep,
// and the two are equal.
func (e *Engine) selectorSet(m map[selKey]*Bitset, k selKey, build func() *Bitset) *Bitset {
	e.mu.RLock()
	b, ok := m[k]
	e.mu.RUnlock()
	if ok {
		return b
	}
	b = build()
	e.mu.Lock()
	defer e.mu.Unlock()
	if first, ok := m[k]; ok {
		return first
	}
	m[k] = b
	return b
}

// entityColumn is the rating table's column naming each record's entity on
// a side.
func (e *Engine) entityColumn(side Side) []int32 {
	if side == ReviewerSide {
		return e.DB.Ratings.Reviewer
	}
	return e.DB.Ratings.Item
}

// EntityGroup materializes one side of a description as a row bitset.
func (e *Engine) EntityGroup(d Description, side Side) (*Bitset, error) {
	acc := FullBitset(e.table(side).Len())
	for _, s := range d.SideSelectors(side) {
		k, err := e.lookup(s)
		if err != nil {
			return nil, err
		}
		acc.IntersectWith(e.entitySet(k))
	}
	return acc, nil
}

// Materialize evaluates a description into a rating group: its entity
// groups, and its records ascending in a slice of exactly their number.
// With the group cache enabled (EnableGroupCache), repeated selections are
// served from memory; the returned group must then be treated as
// immutable.
func (e *Engine) Materialize(d Description) (*RatingGroup, error) {
	g, _, err := e.MaterializeCached(d)
	return g, err
}

// materialize builds a rating group. A record is in it iff its reviewer
// holds every reviewer selector's value and its item every item
// selector's, that is iff it is in every selector's record set: the
// records are the AND of those sets, counted in one pass and read out in a
// second, so they come back in table order without a sort or a bitmap of
// their own. An empty entity group needs no record sets.
func (e *Engine) materialize(d Description) (*RatingGroup, error) {
	g := &RatingGroup{Desc: d, Reviewers: FullBitset(e.DB.Reviewers.Len()), Items: FullBitset(e.DB.Items.Len())}
	keys := make([]selKey, 0, d.Len())
	for _, s := range d.selectors {
		k, err := e.lookup(s)
		if err != nil {
			return nil, err
		}
		entities := g.Reviewers
		if s.Side == ItemSide {
			entities = g.Items
		}
		entities.IntersectWith(e.entitySet(k))
		keys = append(keys, k)
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
		sets := make([]*Bitset, len(keys))
		for i, k := range keys {
			sets[i] = e.recordSet(k)
		}
		g.Records = and(sets)
	}
	return g, nil
}

// and returns, ascending, the elements of the intersection of one or more
// bitsets over one universe, in a slice of exactly their number.
func and(sets []*Bitset) []int32 {
	first, rest := sets[0].words, sets[1:]
	count := 0
	for wi, w := range first {
		for _, b := range rest {
			w &= b.words[wi]
		}
		count += bits.OnesCount64(w)
	}
	out := make([]int32, count)
	n := 0
	for wi, w := range first {
		for _, b := range rest {
			w &= b.words[wi]
		}
		base := int32(wi * 64)
		for ; w != 0; w &= w - 1 {
			out[n] = base + int32(bits.TrailingZeros64(w))
			n++
		}
	}
	return out
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
