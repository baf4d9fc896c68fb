package query

import (
	"math/rand"
	"testing"
)

func parserEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine(buildQueryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseDescriptionBasic(t *testing.T) {
	e := parserEngine(t)
	d, err := ParseDescription("reviewers.gender = 'F' AND items.city = 'NYC'", e)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if v, ok := d.ValueOf(ReviewerSide, "gender"); !ok || v != "F" {
		t.Errorf("gender = %q ok=%v", v, ok)
	}
	if v, ok := d.ValueOf(ItemSide, "city"); !ok || v != "NYC" {
		t.Errorf("city = %q ok=%v", v, ok)
	}
}

func TestParseDescriptionQuoteStyles(t *testing.T) {
	e := parserEngine(t)
	for _, input := range []string{
		`reviewers.gender = 'F'`,
		`reviewers.gender = "F"`,
		`reviewers.gender=F`,
		`  REVIEWERS.gender  =  'F'  `,
		`users.gender = 'F'`, // alias
	} {
		d, err := ParseDescription(input, e)
		if err != nil {
			t.Errorf("%q: %v", input, err)
			continue
		}
		if v, _ := d.ValueOf(ReviewerSide, "gender"); v != "F" {
			t.Errorf("%q parsed to %s", input, d)
		}
	}
}

func TestParseDescriptionUniversal(t *testing.T) {
	e := parserEngine(t)
	for _, input := range []string{"", "   ", "TRUE", "true", "  TRUE\t\n", "\u00a0TRUE\u2003"} {
		d, err := ParseDescription(input, e)
		if err != nil {
			t.Errorf("%q: %v", input, err)
		}
		if !d.IsEmpty() {
			t.Errorf("%q should parse to the universal description", input)
		}
	}
}

// TestParseDescriptionReadsTheWholeInput: TRUE is the universal
// description only when it is all the input says; anything after it is
// read as terms, and fails like any other malformed predicate.
func TestParseDescriptionReadsTheWholeInput(t *testing.T) {
	e := parserEngine(t)
	for _, input := range []string{
		"TRUE AND reviewers.gender='f'",
		"true garbage",
		"TRUE TRUE",
		"TRUE = 'x'", // no attribute named TRUE
		"TRUE;",
	} {
		if d, err := ParseDescription(input, e); err == nil {
			t.Errorf("%q parsed to %q, want an error", input, d)
		}
	}
}

// TestParseDescriptionBarewordRunes: a bareword is read rune by rune, so a
// letter outside ASCII is part of it, as it is of a quoted value, and a
// space outside ASCII separates like a blank.
func TestParseDescriptionBarewordRunes(t *testing.T) {
	e := parserEngine(t)
	for _, c := range []struct{ input, value string }{
		{"items.city = café", "café"},
		{"items.city = 'café'", "café"},
		{"items.city = São-Paulo", "São-Paulo"},
		{"items.city = Zürich\u00a0", "Zürich"},
		{"items.city = 東京", "東京"},
		{"items.city=ÅÀ", "ÅÀ"}, // UTF-8 continuation bytes 0x85 and 0x80, not spaces
	} {
		d, err := ParseDescription(c.input, e)
		if err != nil {
			t.Errorf("%q: %v", c.input, err)
			continue
		}
		if v, ok := d.ValueOf(ItemSide, "city"); !ok || v != c.value || d.Len() != 1 {
			t.Errorf("%q parsed to %q, want items.city = %q", c.input, d, c.value)
		}
	}
	if d, err := ParseDescription("items.city = caf\xe9", e); err == nil {
		t.Errorf("an invalid UTF-8 byte in a bareword parsed to %q, want an error", d)
	}
}

func TestParseDescriptionUnqualified(t *testing.T) {
	e := parserEngine(t)
	// gender exists only on the reviewer side.
	d, err := ParseDescription("gender = 'F'", e)
	if err != nil {
		t.Fatal(err)
	}
	if !d.BindsAttr(ReviewerSide, "gender") {
		t.Error("unqualified gender should resolve to reviewers")
	}
	// city exists only on items in this schema.
	d, err = ParseDescription("city = 'NYC'", e)
	if err != nil {
		t.Fatal(err)
	}
	if !d.BindsAttr(ItemSide, "city") {
		t.Error("unqualified city should resolve to items")
	}
}

func TestParseDescriptionErrors(t *testing.T) {
	e := parserEngine(t)
	cases := []string{
		"reviewers.gender",                                  // missing = value
		"reviewers.gender = ",                               // missing value
		"reviewers.gender = 'F",                             // unterminated quote
		"martians.gender = 'F'",                             // unknown table
		"unknownattr = 'x'",                                 // unresolvable
		"reviewers.gender = 'F' AND",                        // dangling AND
		"reviewers.gender = 'F' OR x = 1",                   // OR unsupported
		"reviewers.gender = 'F' gender, x",                  // junk
		"reviewers.gender = 'F' AND reviewers.gender = 'M'", // conflict
	}
	for _, input := range cases {
		if _, err := ParseDescription(input, e); err == nil {
			t.Errorf("%q: expected parse error", input)
		}
	}
}

func TestParseDescriptionNilResolver(t *testing.T) {
	if _, err := ParseDescription("gender = 'F'", nil); err == nil {
		t.Fatal("unqualified attribute without resolver must fail")
	}
	// Qualified attributes need no resolver.
	d, err := ParseDescription("reviewers.gender = 'F'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	e := parserEngine(t)
	orig := MustDescription(
		sel(ReviewerSide, "gender", "F"),
		sel(ItemSide, "city", "NYC"),
		sel(ReviewerSide, "age_group", "young"),
	)
	parsed, err := ParseDescription(orig.String(), e)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(orig) {
		t.Fatalf("round trip: %s vs %s", parsed, orig)
	}
}

func TestParserNeverPanics(t *testing.T) {
	// Robustness: arbitrary input must produce a value or an error, never a
	// panic. Exercised with adversarial fragments and random bytes.
	e := parserEngine(t)
	adversarial := []string{
		"..", "=", "''", "a.b.c.d = 'x'", "reviewers.", ".gender = 'F'",
		"reviewers.gender == 'F'", "AND AND AND", "🦀.🦀 = '🦀'",
		"reviewers.gender = 'F' AND", "\x00\x01\x02", "((((", "a='b' AND c",
		"reviewers.gender='F'AND items.city='NYC'",
	}
	for _, input := range adversarial {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", input, r)
				}
			}()
			_, _ = ParseDescription(input, e)
		}()
	}
	rng := rand.New(rand.NewSource(99))
	chars := []byte("abc._='\" ANDreviewersitems🦀\x00")
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = chars[rng.Intn(len(chars))]
		}
		input := string(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on random input %q: %v", input, r)
				}
			}()
			if d, err := ParseDescription(input, e); err == nil {
				// Successful parses must produce a valid canonical form that
				// re-parses to an equal description.
				again, err2 := ParseDescription(d.String(), e)
				if err2 != nil && d.Len() > 0 {
					t.Fatalf("canonical form %q of %q does not re-parse: %v", d.String(), input, err2)
				}
				if err2 == nil && !again.Equal(d) {
					t.Fatalf("round trip changed %q", d.String())
				}
			}
		}()
	}
}
