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
	groups   *groupCache // optional whole-group cache (EnableGroupCache)
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

// Materialize evaluates a description into a rating group: the records of
// the smaller entity side, read from its record index and kept when the
// other side's bitset admits them, so narrow selections stay cheap; they
// come back ascending without a sort (gather), in a slice of exactly their
// number. With the group cache enabled (EnableGroupCache), repeated
// selections are served from memory; the returned group must then be
// treated as immutable.
func (e *Engine) Materialize(d Description) (*RatingGroup, error) {
	g, _, err := e.MaterializeCached(d)
	return g, err
}

func (e *Engine) materialize(d Description) (*RatingGroup, error) {
	ug, err := e.EntityGroup(d, ReviewerSide)
	if err != nil {
		return nil, err
	}
	ig, err := e.EntityGroup(d, ItemSide)
	if err != nil {
		return nil, err
	}
	g := &RatingGroup{Desc: d, Reviewers: ug, Items: ig}

	uCount, iCount := ug.Count(), ig.Count()
	switch {
	case uCount == 0 || iCount == 0:
		// empty group
	case d.IsEmpty():
		g.Records = make([]int32, e.DB.Ratings.Len())
		for r := range g.Records {
			g.Records[r] = int32(r)
		}
	case uCount <= iCount:
		g.Records = e.gather(ug, e.DB.RecordsOfReviewer, ig, e.DB.Ratings.Item)
	default:
		g.Records = e.gather(ig, e.DB.RecordsOfItem, ug, e.DB.Ratings.Reviewer)
	}
	return g, nil
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
