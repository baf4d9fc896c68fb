// Package query implements group descriptions and exploration operations over
// a subjective database (§3.1-3.2.1): conjunctive attribute-value predicates
// on the reviewer and item tables, the filter/generalize operation algebra
// users step through, a small SQL-style predicate parser for the advanced
// screen, and the machinery that materializes a description into a rating
// group (the record set joining the selected reviewers and items).
package query

import (
	"fmt"
	"slices"
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

// AttrKey identifies the attribute (without the value) a selector binds.
func (s Selector) AttrKey() string { return strconv.Itoa(int(s.Side)) + "\x00" + keyPart(s.Attr) }

// keyEscape introduces an escaped byte in a key part. Keys separate their
// fields with \x00, \x01 and \x02, and a cell may hold any of them, so each
// of those bytes and keyEscape itself is written as keyEscape followed by
// the byte plus '0'. No escaped part holds a separator, which makes every
// key built from parts injective; a part without those bytes, which is
// every part of ordinary data, is itself.
const keyEscape = 0x03

// keyPart is s as a key part.
func keyPart(s string) string {
	if !needsKeyEscape(s) {
		return s
	}
	return string(appendKeyPart(nil, s))
}

func needsKeyEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= keyEscape {
			return true
		}
	}
	return false
}

// appendKeyPart appends s to a key as keyPart writes it.
func appendKeyPart(b []byte, s string) []byte {
	if !needsKeyEscape(s) {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= keyEscape {
			b = append(b, keyEscape, c+'0')
		} else {
			b = append(b, c)
		}
	}
	return b
}

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
	return canonical(append([]Selector(nil), selectors...))
}

// canonical is NewDescription over a selector list it may reorder and
// shorten in place. A description binds a handful of attributes, so the
// checks are linear scans and the sort an insertion sort: candidate
// enumeration builds several hundred descriptions a step.
func canonical(ss []Selector) (Description, error) {
	out := ss[:0]
next:
	for _, s := range ss {
		if s.Attr == "" {
			return Description{}, fmt.Errorf("query: selector with empty attribute")
		}
		for _, prev := range out {
			if prev.Side != s.Side || prev.Attr != s.Attr {
				continue
			}
			if prev.Value == s.Value {
				continue next
			}
			return Description{}, fmt.Errorf("query: attribute %s.%s bound to both %q and %q",
				s.Side, s.Attr, prev.Value, s.Value)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return Description{}, nil
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && selectorLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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

// selectorLess is the canonical selector order: by side, attribute, value.
func selectorLess(a, b Selector) bool {
	if a.Side != b.Side {
		return a.Side < b.Side
	}
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	return a.Value < b.Value
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
	var buf [64]byte // most keys fit: the string is the one allocation
	return string(d.appendKey(buf[:0]))
}

// appendKey appends Key's bytes to b.
func (d Description) appendKey(b []byte) []byte {
	for i, s := range d.selectors {
		if i > 0 {
			b = append(b, 0x01)
		}
		b = strconv.AppendInt(b, int64(s.Side), 10)
		b = append(b, 0x00)
		b = appendKeyPart(b, s.Attr)
		b = append(b, 0x00)
		b = appendKeyPart(b, s.Value)
	}
	return b
}

// Equal reports whether two descriptions select the same predicate: the
// same selectors, which canonical order makes the same list.
func (d Description) Equal(o Description) bool { return slices.Equal(d.selectors, o.selectors) }

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
	out := make([]Selector, len(d.selectors), len(d.selectors)+1)
	copy(out, d.selectors)
	return canonical(append(out, sel))
}

// Without returns a new description with sel removed (generalize / roll-up).
// Removing an absent selector is an error: the paper's operations always act
// on the current selection.
func (d Description) Without(sel Selector) (Description, error) {
	if !d.Has(sel) {
		return Description{}, fmt.Errorf("query: selector %s not in description", sel)
	}
	out := make([]Selector, 0, len(d.selectors)-1)
	for _, s := range d.selectors {
		if s != sel {
			out = append(out, s)
		}
	}
	return canonical(out)
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
	return canonical(out)
}
