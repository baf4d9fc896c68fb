package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseDescription parses the SQL-style predicate accepted by the advanced
// screen of the UI (§4, "by providing SQL predicates"):
//
//	reviewers.age_group = 'young' AND items.city = 'NYC'
//
// The grammar is a conjunction of equality predicates:
//
//	predicate  := term { AND term }
//	term       := qualified '=' value
//	qualified  := ("reviewers"|"users"|"items") '.' ident | ident
//	value      := '\'' chars '\'' | '"' chars '"' | bareword
//
// An unqualified attribute is resolved against resolver (typically the
// engine's schemas); it is an error if it exists on both sides. A blank
// string and the keyword TRUE alone parse to the universal description;
// anything after TRUE is read as a term, so "TRUE AND …" is an error.
func ParseDescription(input string, resolver AttrResolver) (Description, error) {
	p := &parser{src: input}
	if p.keyword("TRUE") {
		if p.skipSpace(); !p.eof() {
			p.pos = 0 // more follows TRUE: read it all as terms
		}
	}
	if p.skipSpace(); p.eof() {
		return Description{}, nil
	}
	var sels []Selector
	for {
		sel, err := p.term(resolver)
		if err != nil {
			return Description{}, err
		}
		sels = append(sels, sel)
		p.skipSpace()
		if p.eof() {
			break
		}
		if !p.keyword("AND") {
			return Description{}, p.errorf("expected AND or end of input")
		}
	}
	return NewDescription(sels...)
}

// AttrResolver resolves unqualified attribute names to a table side.
type AttrResolver interface {
	// ResolveAttr returns the side owning the attribute. ok is false when
	// the attribute exists on neither side; err is non-nil when ambiguous.
	ResolveAttr(attr string) (side Side, ok bool, err error)
}

// ResolveAttr lets the query engine act as an AttrResolver over its
// database's two schemas.
func (e *Engine) ResolveAttr(attr string) (Side, bool, error) {
	onU := e.DB.Reviewers.Schema.Has(attr)
	onI := e.DB.Items.Schema.Has(attr)
	switch {
	case onU && onI:
		return 0, false, fmt.Errorf("query: attribute %q is ambiguous; qualify with reviewers. or items.", attr)
	case onU:
		return ReviewerSide, true, nil
	case onI:
		return ItemSide, true, nil
	default:
		return 0, false, nil
	}
}

type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("query: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// next decodes the rune at the read position and its width in bytes; an
// invalid byte reads as utf8.RuneError, which is neither space nor part
// of an identifier.
func (p *parser) next() (rune, int) { return utf8.DecodeRuneInString(p.src[p.pos:]) }

func (p *parser) skipSpace() {
	for !p.eof() {
		r, w := p.next()
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += w
	}
}

// keyword consumes a case-insensitive keyword followed by a word boundary.
func (p *parser) keyword(kw string) bool {
	p.skipSpace()
	if p.peekKeyword(kw) {
		p.pos += len(kw)
		return true
	}
	return false
}

func (p *parser) peekKeyword(kw string) bool {
	if p.pos+len(kw) > len(p.src) {
		return false
	}
	if !strings.EqualFold(p.src[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	end := p.pos + len(kw)
	r, _ := utf8.DecodeRuneInString(p.src[end:]) // RuneError at the end
	return !isIdentChar(r)
}

func isIdentChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		r, w := p.next()
		if !isIdentChar(r) {
			break
		}
		p.pos += w
	}
	if p.pos == start {
		return "", p.errorf("expected identifier")
	}
	return p.src[start:p.pos], nil
}

func (p *parser) value() (string, error) {
	p.skipSpace()
	if p.eof() {
		return "", p.errorf("expected value")
	}
	switch q := p.src[p.pos]; q {
	case '\'', '"':
		p.pos++
		start := p.pos
		for !p.eof() && p.src[p.pos] != q {
			p.pos++
		}
		if p.eof() {
			return "", p.errorf("unterminated quoted value")
		}
		v := p.src[start:p.pos]
		p.pos++
		return v, nil
	default:
		return p.ident()
	}
}

func (p *parser) term(resolver AttrResolver) (Selector, error) {
	name, err := p.ident()
	if err != nil {
		return Selector{}, err
	}
	var side Side
	sideGiven := false
	attr := name
	p.skipSpace()
	if !p.eof() && p.src[p.pos] == '.' {
		p.pos++
		switch strings.ToLower(name) {
		case "reviewers", "users", "reviewer", "user":
			side = ReviewerSide
		case "items", "item", "restaurants", "movies", "hotels":
			side = ItemSide
		default:
			return Selector{}, p.errorf("unknown table %q (want reviewers or items)", name)
		}
		sideGiven = true
		attr, err = p.ident()
		if err != nil {
			return Selector{}, err
		}
	}
	p.skipSpace()
	if p.eof() || p.src[p.pos] != '=' {
		return Selector{}, p.errorf("expected '=' after attribute %q", attr)
	}
	p.pos++
	val, err := p.value()
	if err != nil {
		return Selector{}, err
	}
	if !sideGiven {
		if resolver == nil {
			return Selector{}, p.errorf("unqualified attribute %q needs a resolver", attr)
		}
		s, ok, err := resolver.ResolveAttr(attr)
		if err != nil {
			return Selector{}, err
		}
		if !ok {
			return Selector{}, p.errorf("unknown attribute %q", attr)
		}
		side = s
	}
	return Selector{Side: side, Attr: attr, Value: val}, nil
}
