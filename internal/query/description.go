// Package query implements group descriptions and exploration operations over
// a subjective database (§3.1-3.2.1): conjunctive attribute-value predicates
// on the reviewer and item tables, the filter/generalize operation algebra
// users step through, a small SQL-style predicate parser for the advanced
// screen, and the machinery that materializes a description into a rating
// group (the record set joining the selected reviewers and items).
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Side identifies which entity table a selector constrains.
type Side int

const (
	// ReviewerSide selectors constrain the reviewers table.
	ReviewerSide Side = iota
	// ItemSide selectors constrain the items table.
	ItemSide
)

func (s Side) String() string {
	switch s {
	case ReviewerSide:
		return "reviewers"
	case ItemSide:
		return "items"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// Selector is one attribute-value pair ⟨a, v⟩ of a group description, e.g.
// ⟨gender, female⟩ on the reviewer side.
type Selector struct {
	Side  Side
	Attr  string
	Value string
}

// String renders the selector as table.attr='value'. The quote character
// adapts to the value: values containing a single quote render with double
// quotes, so every parser-producible selector formats to a string that
// re-parses to itself (a quoted value can contain the other quote kind but
// never its own delimiter). Values containing both quote kinds — only
// constructible programmatically — have no parseable rendering; the
// single-quoted form is used as a best effort.
func (s Selector) String() string {
	q := "'"
	if strings.ContainsRune(s.Value, '\'') && !strings.ContainsRune(s.Value, '"') {
		q = `"`
	}
	return s.Side.String() + "." + s.Attr + "=" + q + s.Value + q
}

// Key returns a canonical identity string (used for set semantics):
// side, attribute and value, NUL-separated. Keys are built by concatenation —
// candidate enumeration makes several hundred a step.
func (s Selector) Key() string {
	return strconv.Itoa(int(s.Side)) + "\x00" + s.Attr + "\x00" + s.Value
}

// AttrKey identifies the attribute (without the value) a selector binds.
func (s Selector) AttrKey() string { return strconv.Itoa(int(s.Side)) + "\x00" + s.Attr }

// Description is a conjunctive set of selectors defining a reviewer group
// and an item group simultaneously (the paper's q). The zero value selects
// everything. Descriptions are immutable; operations return new ones.
type Description struct {
	selectors []Selector
}

// NewDescription builds a description from selectors, deduplicating and
// rejecting two different values for the same attribute (which would select
// the empty group for atomic attributes and is disallowed in the paper's
// operation grammar).
func NewDescription(selectors ...Selector) (Description, error) {
	seen := make(map[string]bool, len(selectors))
	attrs := make(map[string]string, len(selectors))
	var out []Selector
	for _, s := range selectors {
		if s.Attr == "" {
			return Description{}, fmt.Errorf("query: selector with empty attribute")
		}
		k := s.Key()
		if seen[k] {
			continue
		}
		if prev, dup := attrs[s.AttrKey()]; dup {
			return Description{}, fmt.Errorf("query: attribute %s.%s bound to both %q and %q",
				s.Side, s.Attr, prev, s.Value)
		}
		seen[k] = true
		attrs[s.AttrKey()] = s.Value
		out = append(out, s)
	}
	sortSelectors(out)
	return Description{selectors: out}, nil
}

// MustDescription is NewDescription that panics on error.
func MustDescription(selectors ...Selector) Description {
	d, err := NewDescription(selectors...)
	if err != nil {
		panic(err)
	}
	return d
}

func sortSelectors(ss []Selector) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Side != ss[j].Side {
			return ss[i].Side < ss[j].Side
		}
		if ss[i].Attr != ss[j].Attr {
			return ss[i].Attr < ss[j].Attr
		}
		return ss[i].Value < ss[j].Value
	})
}

// Selectors returns a copy of the selector list in canonical order.
func (d Description) Selectors() []Selector { return append([]Selector(nil), d.selectors...) }

// SideSelectors returns the selectors constraining one table.
func (d Description) SideSelectors(side Side) []Selector {
	var out []Selector
	for _, s := range d.selectors {
		if s.Side == side {
			out = append(out, s)
		}
	}
	return out
}

// Len returns the number of selectors.
func (d Description) Len() int { return len(d.selectors) }

// IsEmpty reports whether the description selects the entire database.
func (d Description) IsEmpty() bool { return len(d.selectors) == 0 }

// Has reports whether the description contains the exact selector.
func (d Description) Has(sel Selector) bool {
	for _, s := range d.selectors {
		if s == sel {
			return true
		}
	}
	return false
}

// BindsAttr reports whether some selector constrains the given attribute.
func (d Description) BindsAttr(side Side, attr string) bool {
	for _, s := range d.selectors {
		if s.Side == side && s.Attr == attr {
			return true
		}
	}
	return false
}

// ValueOf returns the bound value of the attribute, if any.
func (d Description) ValueOf(side Side, attr string) (string, bool) {
	for _, s := range d.selectors {
		if s.Side == side && s.Attr == attr {
			return s.Value, true
		}
	}
	return "", false
}

// Key returns a canonical identity string for the whole description.
func (d Description) Key() string {
	var b []byte
	for i, s := range d.selectors {
		if i > 0 {
			b = append(b, 0x01)
		}
		b = strconv.AppendInt(b, int64(s.Side), 10)
		b = append(b, 0x00)
		b = append(b, s.Attr...)
		b = append(b, 0x00)
		b = append(b, s.Value...)
	}
	return string(b)
}

// Equal reports whether two descriptions select the same predicate.
func (d Description) Equal(o Description) bool { return d.Key() == o.Key() }

// String renders the description as a WHERE-style conjunction.
func (d Description) String() string {
	if len(d.selectors) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(d.selectors))
	for i, s := range d.selectors {
		parts[i] = s.String()
	}
	return strings.Join(parts, " AND ")
}

// With returns a new description with sel added (filter / drill-down).
func (d Description) With(sel Selector) (Description, error) {
	return NewDescription(append(d.Selectors(), sel)...)
}

// Without returns a new description with sel removed (generalize / roll-up).
// Removing an absent selector is an error: the paper's operations always act
// on the current selection.
func (d Description) Without(sel Selector) (Description, error) {
	if !d.Has(sel) {
		return Description{}, fmt.Errorf("query: selector %s not in description", sel)
	}
	var out []Selector
	for _, s := range d.selectors {
		if s != sel {
			out = append(out, s)
		}
	}
	return NewDescription(out...)
}

// WithChanged returns a new description where the attribute bound by old is
// re-bound to newValue (a sideways move in the lattice).
func (d Description) WithChanged(old Selector, newValue string) (Description, error) {
	if !d.Has(old) {
		return Description{}, fmt.Errorf("query: selector %s not in description", old)
	}
	out := make([]Selector, 0, len(d.selectors))
	for _, s := range d.selectors {
		if s == old {
			s.Value = newValue
		}
		out = append(out, s)
	}
	return NewDescription(out...)
}

// EditDistance counts the minimum number of selector additions, removals,
// and value changes turning d into o. A change (same attribute, different
// value) counts 1, matching §4.3's "small adjustment" semantics.
func (d Description) EditDistance(o Description) int {
	mine := make(map[string]string)
	for _, s := range d.selectors {
		mine[s.AttrKey()] = s.Value
	}
	theirs := make(map[string]string)
	for _, s := range o.selectors {
		theirs[s.AttrKey()] = s.Value
	}
	dist := 0
	for k, v := range mine {
		tv, ok := theirs[k]
		if !ok || tv != v {
			dist++ // removal or change
		}
	}
	for k := range theirs {
		if _, ok := mine[k]; !ok {
			dist++ // addition
		}
	}
	return dist
}
