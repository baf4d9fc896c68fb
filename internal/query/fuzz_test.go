package query

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse drives the advanced-screen predicate parser with arbitrary
// input. Three invariants:
//
//  1. Never panic — any byte sequence yields a Description or an error.
//  2. Only a blank input or TRUE alone parses to the universal
//     description: a parse of anything else binds at least one selector.
//  3. Round trip — a successful parse formats (Description.String) to a
//     canonical predicate that re-parses to an equal Description. The
//     formatter picks its quote character per value, so the only inputs
//     exempted are values containing both quote kinds, which the grammar
//     itself cannot express (a quoted value terminates at the first
//     occurrence of its own delimiter).
//
// Seed corpus: the documented grammar, every quote style, aliases,
// adversarial fragments from past parser bugs, and non-ASCII input.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"   ",
		"TRUE",
		"true",
		"reviewers.gender = 'F'",
		`items.city = "NYC" AND reviewers.age_group = young`,
		"gender = 'F'",
		"users.gender='F'AND items.city='NYC'",
		`reviewers.gender = "a'b"`,
		`reviewers.gender = 'a"b'`,
		"cuisine = sushi",
		"a.b.c = 'x'",
		"AND AND AND",
		"reviewers.",
		".gender = 'F'",
		"reviewers.gender == 'F'",
		"reviewers.gender = 'F' AND",
		"🦀.🦀 = '🦀'",
		"\x00\x01\x02",
		"gender=''",
		"  REVIEWERS.GENDER  =  \"F\"  ",
		"TRUE AND reviewers.gender='f'",
		"true garbage",
		"items.city = café",
	} {
		f.Add(s)
	}
	e := parserEngine(f)
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseDescription(input, e) // must not panic
		if err != nil {
			return
		}
		if trimmed := strings.TrimSpace(input); trimmed != "" && !strings.EqualFold(trimmed, "TRUE") && d.Len() < 1 {
			t.Fatalf("%q parsed to the universal description", input)
		}
		canon := d.String()
		again, err := ParseDescription(canon, e)
		if err != nil {
			// The single unrepresentable case: a programmatic value holding
			// both quote kinds. The parser cannot produce one, so reaching
			// this from parsed input is a bug.
			for _, sel := range d.Selectors() {
				if strings.ContainsRune(sel.Value, '\'') && strings.ContainsRune(sel.Value, '"') {
					return
				}
			}
			t.Fatalf("canonical form %q of input %q does not re-parse: %v", canon, input, err)
		}
		if !again.Equal(d) {
			t.Fatalf("round trip changed %q: %q -> %q", input, canon, again.String())
		}
		// Canonical form must be a fixed point of String.
		if again.String() != canon {
			t.Fatalf("String not canonical: %q vs %q", again.String(), canon)
		}
	})
}

// newDescriptionMaps is NewDescription as it was first written — a seen
// map of selector keys, a map of bound attributes and sort.Slice — kept as
// the reference FuzzNewDescription holds the map-free version to.
func newDescriptionMaps(selectors ...Selector) (Description, error) {
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Side != out[j].Side {
			return out[i].Side < out[j].Side
		}
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Value < out[j].Value
	})
	return Description{selectors: out}, nil
}

// encodeSelectors is FuzzNewDescription's input form: one line a selector,
// its side as the first byte (a signed byte, so Side(-1) is expressible),
// then attr=value. Attributes may not hold '=' or a newline, values not a
// newline.
func encodeSelectors(ss ...Selector) string {
	var b strings.Builder
	for i, s := range ss {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteByte(byte(int8(s.Side)))
		b.WriteString(s.Attr + "=" + s.Value)
	}
	return b.String()
}

func decodeSelectors(spec string) []Selector {
	if spec == "" {
		return nil
	}
	var ss []Selector
	for _, line := range strings.Split(spec, "\n") {
		if line == "" {
			ss = append(ss, Selector{})
			continue
		}
		attr, value, _ := strings.Cut(line[1:], "=")
		ss = append(ss, Selector{Side: Side(int8(line[0])), Attr: attr, Value: value})
	}
	return ss
}

// FuzzNewDescription holds NewDescription — and With, which builds its
// result the same way — to the map-based reference: the same selectors in
// the same canonical order, or the same error text. The one input the two
// may answer differently is excluded: two distinct selectors whose Keys
// collide (an attribute name holding NUL), which the reference drops as a
// duplicate and NewDescription, comparing fields, keeps or rejects.
func FuzzNewDescription(f *testing.F) {
	f.Add("")
	for _, ss := range [][]Selector{
		// query_test.go's cases.
		{sel(ReviewerSide, "gender", "F"), sel(ItemSide, "city", "NYC")},
		{sel(ItemSide, "city", "NYC"), sel(ReviewerSide, "gender", "F")},
		{sel(ReviewerSide, "gender", "F"), sel(ReviewerSide, "gender", "F"), sel(ItemSide, "city", "NYC")},
		{sel(ReviewerSide, "gender", "F"), sel(ReviewerSide, "gender", "M")},
		{{Side: ReviewerSide, Attr: "", Value: "x"}},
		{sel(ReviewerSide, "age", "young"), sel(ReviewerSide, "gender", "F"), sel(ItemSide, "city", "NYC")},
		// Exact duplicates.
		{sel(ItemSide, "cuisine", "sushi"), sel(ItemSide, "cuisine", "sushi"), sel(ItemSide, "cuisine", "sushi")},
		// One attribute bound twice, in both orders, after a duplicate.
		{sel(ItemSide, "city", "a"), sel(ReviewerSide, "age", "x"), sel(ItemSide, "city", "b")},
		{sel(ItemSide, "city", "b"), sel(ItemSide, "city", "b"), sel(ItemSide, "city", "a")},
		// The same attribute name on both sides.
		{sel(ReviewerSide, "city", "a"), sel(ItemSide, "city", "b")},
		{sel(ItemSide, "city", "a"), sel(ReviewerSide, "city", "a"), sel(ItemSide, "city", "a")},
		// An empty attribute after a conflict, and a conflict after it.
		{sel(ReviewerSide, "g", "F"), sel(ReviewerSide, "g", "M"), {Side: ItemSide}},
		{{Side: ItemSide, Value: "v"}, sel(ReviewerSide, "g", "F"), sel(ReviewerSide, "g", "M")},
		// TestKeysMatchSprintf's selectors.
		{
			sel(ReviewerSide, "gender", "F"),
			sel(ItemSide, "city", "New York"),
			sel(ItemSide, "a\x00b", "v\x00\x01w"),
			sel(ReviewerSide, `quo"te`, `it's "both"`),
			sel(ItemSide, "cuisine", "crème brûlée 🦀"),
			sel(Side(7), "x", ""),
			sel(Side(-1), "%d%s", "%!s(MISSING)"),
		},
	} {
		f.Add(encodeSelectors(ss...))
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ss := decodeSelectors(spec)
		for i := range ss {
			for j := range ss[:i] {
				if ss[i] != ss[j] && ss[i].Key() == ss[j].Key() {
					return
				}
			}
		}
		same := func(what string, got Description, gotErr error, want Description, wantErr error) {
			t.Helper()
			switch {
			case gotErr != nil || wantErr != nil:
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s of %q: error %v, reference %v", what, ss, gotErr, wantErr)
				}
			case !slices.Equal(got.Selectors(), want.Selectors()):
				t.Fatalf("%s of %q: %q, reference %q", what, ss, got.Selectors(), want.Selectors())
			}
		}
		got, err := NewDescription(ss...)
		want, wantErr := newDescriptionMaps(ss...)
		same("NewDescription", got, err, want, wantErr)
		if len(ss) == 0 {
			return
		}
		last := ss[len(ss)-1]
		if prefix, err := newDescriptionMaps(ss[:len(ss)-1]...); err == nil {
			got, err := prefix.With(last)
			same("With", got, err, want, wantErr)
		}
	})
}

// Key is a selector's identity, the reference's set key: side, attribute
// and value, NUL-separated, with the separator bytes in the attribute and
// value escaped (keyPart).
func (s Selector) Key() string {
	return strconv.Itoa(int(s.Side)) + "\x00" + keyPart(s.Attr) + "\x00" + keyPart(s.Value)
}
