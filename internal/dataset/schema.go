// Package dataset implements the subjective database of the paper (§3.1): a
// triple ⟨I, U, R⟩ of items, reviewers (users), and rating records. Items and
// reviewers carry objective attributes — atomic or multi-valued (e.g. a
// restaurant's cuisine set) — while rating records carry one numerical score
// per rating dimension on an integer scale {1..m}.
//
// Storage is columnar and dictionary-encoded: every attribute column holds
// small integer value ids into a per-attribute dictionary, which makes the
// grouping and filtering scans at the heart of rating-map generation cache
// friendly and allocation free.
package dataset

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind distinguishes atomic attributes (exactly one value per entity) from
// multi-valued attributes (a set of values per entity, like cuisine).
type Kind int

const (
	// Atomic attributes hold exactly one value per entity.
	Atomic Kind = iota
	// MultiValued attributes hold a set of values per entity; an entity
	// belongs to the group of each of its values.
	MultiValued
)

func (k Kind) String() string {
	switch k {
	case Atomic:
		return "atomic"
	case MultiValued:
		return "multi-valued"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one objective attribute of the reviewer or item table.
type Attribute struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of attributes with a name index.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{attrs: append([]Attribute(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute %q", a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static schema literals.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// At returns the i-th attribute.
func (s *Schema) At(i int) Attribute { return s.attrs[i] }

// Attributes returns a copy of the attribute list.
func (s *Schema) Attributes() []Attribute { return append([]Attribute(nil), s.attrs...) }

// Names returns the attribute names in declaration order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	return names
}

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Dictionary maps attribute string values to dense integer ids and back.
// Id 0 is reserved for the missing value so that zeroed columns decode to
// Missing.
type Dictionary struct {
	values []string
	ids    map[string]ValueID
}

// ValueID is a dictionary-encoded attribute value. 0 means missing.
type ValueID uint16

// MaxValues is the most distinct values one attribute's dictionary holds
// besides the missing value: every ValueID but MissingValue.
const MaxValues = math.MaxUint16

// MissingValue is the ValueID of an absent value, and MissingLabel its
// string form.
const MissingValue ValueID = 0

// MissingLabel is how missing values print and round-trip through CSV.
const MissingLabel = "__missing__"

// errDictFull is what interning one value more than MaxValues returns.
var errDictFull = fmt.Errorf("more than %d distinct values", MaxValues)

// NewDictionary returns an empty dictionary with the missing value
// pre-registered as id 0.
func NewDictionary() *Dictionary {
	d := &Dictionary{ids: make(map[string]ValueID)}
	d.values = append(d.values, MissingLabel)
	d.ids[MissingLabel] = MissingValue
	return d
}

// Intern returns the id of v, registering it if new; a new value past
// MaxValues is an error. Interning the missing label returns MissingValue.
// The dictionary keeps a copy of a new value, not v itself, which may be a
// substring of a larger string.
func (d *Dictionary) Intern(v string) (ValueID, error) {
	if id, ok := d.ids[v]; ok {
		return id, nil
	}
	return d.add(strings.Clone(v))
}

// internBytes is Intern for a value held in bytes: looking it up allocates
// nothing, and only a new value is copied.
func (d *Dictionary) internBytes(v []byte) (ValueID, error) {
	if id, ok := d.ids[string(v)]; ok {
		return id, nil
	}
	return d.add(string(v))
}

// add registers v, which no id has yet.
func (d *Dictionary) add(v string) (ValueID, error) {
	if len(d.values) > MaxValues {
		return MissingValue, errDictFull
	}
	id := ValueID(len(d.values))
	d.values = append(d.values, v)
	d.ids[v] = id
	return id, nil
}

// Lookup returns the id of v and whether it is registered.
func (d *Dictionary) Lookup(v string) (ValueID, bool) {
	id, ok := d.ids[v]
	return id, ok
}

// Value returns the string value of id; unknown ids decode as MissingLabel.
func (d *Dictionary) Value(id ValueID) string {
	if int(id) >= len(d.values) {
		return MissingLabel
	}
	return d.values[id]
}

// Len returns the number of registered values including the missing value.
func (d *Dictionary) Len() int { return len(d.values) }

// Values returns all registered values except the missing value, sorted.
func (d *Dictionary) Values() []string {
	vs := append([]string(nil), d.values[1:]...)
	sort.Strings(vs)
	return vs
}
