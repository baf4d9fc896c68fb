package sessionstore

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"subdex/internal/core"
	"subdex/internal/ratingmap"
)

// The record codec: walRecord to and from the JSON payload of a WAL line,
// by hand. Every line ever written is json.Marshal output of the same
// record type, so the encoder writes exactly those bytes — field order,
// omitempty, Go's string escapes (HTML characters, U+2028/U+2029, U+FFFD
// for invalid UTF-8), its float format, map keys sorted as strings, and an
// error on NaN or ±Inf. The decoder reads that layout and nothing else: no
// whitespace, no other key order, no unknown key. It is one-sided against
// encoding/json: a payload it accepts, json.Unmarshal accepts as the same
// record; a payload no encoder wrote is a corrupt line, like a line outside
// the frame. The encoding/json reference lives in the tests, which hold
// both directions to it.

// appendRecord appends rec's JSON payload to b.
func appendRecord(b []byte, rec *walRecord) ([]byte, error) {
	w := recordWriter{b: b}
	w.raw(`{"k":`)
	w.str(rec.Kind)
	w.raw(`,"id":`)
	w.int(rec.ID)
	if rec.Seq != 0 {
		w.raw(`,"seq":`)
		w.int(rec.Seq)
	}
	if rec.Op != nil {
		w.raw(`,"op":`)
		w.op(rec.Op)
	}
	if rec.Snap != nil {
		w.raw(`,"snap":`)
		w.snapshot(rec.Snap)
	}
	w.raw("}")
	return w.b, w.err
}

// recordWriter appends JSON; err is the first unsupported value met.
type recordWriter struct {
	b   []byte
	err error
}

func (w *recordWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *recordWriter) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

const hexDigits = "0123456789abcdef"

// str appends s as encoding/json quotes it with HTML escaping on.
func (w *recordWriter) str(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// float appends f in encoding/json's format: shortest round-trip digits,
// exponent form outside [1e-6, 1e21) with the exponent unpadded.
func (w *recordWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = fmt.Errorf("sessionstore: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		w.b = append(w.b, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.b = b
}

// floats appends a float slice; nil is null, as it is not omitempty.
func (w *recordWriter) floats(fs []float64) {
	if fs == nil {
		w.raw("null")
		return
	}
	w.b = append(w.b, '[')
	for i, f := range fs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.float(f)
	}
	w.b = append(w.b, ']')
}

func (w *recordWriter) op(op *core.SessionOp) {
	w.raw(`{"kind":`)
	w.str(string(op.Kind))
	if op.Predicate != "" {
		w.raw(`,"predicate":`)
		w.str(op.Predicate)
	}
	if op.Index != 0 {
		w.raw(`,"index":`)
		w.int(op.Index)
	}
	if len(op.Digests) > 0 {
		w.raw(`,"digests":[`)
		for i, d := range op.Digests {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.str(d)
		}
		w.b = append(w.b, ']')
	}
	if op.Degraded {
		w.raw(`,"degraded":true`)
	}
	if len(op.Seen) > 0 {
		w.raw(`,"seen":[`)
		for i, d := range op.Seen {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.raw(`{"dim":`)
			w.int(d.Dim)
			w.raw(`,"dist":`)
			w.floats(d.Dist)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if op.OpID != "" {
		w.raw(`,"op_id":`)
		w.str(op.OpID)
	}
	w.b = append(w.b, '}')
}

func (w *recordWriter) snapshot(s *core.SessionSnapshot) {
	w.raw(`{"version":`)
	w.int(s.Version)
	w.raw(`,"fingerprint":`)
	w.str(s.Fingerprint)
	w.raw(`,"mode":`)
	w.str(s.Mode)
	w.raw(`,"start":`)
	w.str(s.Start)
	if len(s.Ops) > 0 {
		w.raw(`,"ops":[`)
		for i := range s.Ops {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.op(&s.Ops[i])
		}
		w.b = append(w.b, ']')
	}
	if f := s.Final; f != nil {
		w.raw(`,"final":{"current":`)
		w.str(f.Current)
		w.raw(`,"steps":`)
		w.int(f.Steps)
		w.raw(`,"seen":`)
		w.seen(&f.Seen)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, '}')
}

// seen appends a SeenState. Its first two fields are omitempty and the
// last is not, so each present field carries its comma after it.
func (w *recordWriter) seen(st *ratingmap.SeenState) {
	w.b = append(w.b, '{')
	if len(st.Dists) > 0 {
		w.raw(`"dists":[`)
		for i, d := range st.Dists {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.floats(d)
		}
		w.raw("],")
	}
	if len(st.Dims) > 0 {
		// encoding/json orders map keys by their string form: 10 before 2.
		keys := make([]int, 0, len(st.Dims))
		for k := range st.Dims {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b int) int {
			return strings.Compare(strconv.Itoa(a), strconv.Itoa(b))
		})
		w.raw(`"dims":{`)
		for i, k := range keys {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, '"')
			w.int(k)
			w.raw(`":`)
			w.int(st.Dims[k])
		}
		w.raw("},")
	}
	w.raw(`"total":`)
	w.int(st.Total)
	w.b = append(w.b, '}')
}

// parseRecord decodes one payload written by appendRecord.
func parseRecord(payload []byte) (walRecord, error) {
	r := recordReader{b: payload}
	var rec walRecord
	r.expect(`{"k":`)
	rec.Kind = r.word()
	r.expect(`,"id":`)
	rec.ID = r.int()
	if r.lit(`,"seq":`) {
		rec.Seq = r.int()
	}
	if r.lit(`,"op":`) {
		rec.Op = new(core.SessionOp)
		r.op(rec.Op)
	}
	if r.lit(`,"snap":`) {
		rec.Snap = r.snapshot()
	}
	r.expect("}")
	if r.err == nil && r.i != len(r.b) {
		r.fail()
	}
	if r.err != nil {
		return walRecord{}, r.err
	}
	return rec, nil
}

// recordReader walks a payload; err is the first mismatch, after which
// every read returns a zero value.
type recordReader struct {
	b   []byte
	i   int
	err error
}

func (r *recordReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("not a record this codec writes (byte %d)", r.i)
		r.i = len(r.b)
	}
}

// lit consumes s if the payload continues with it.
func (r *recordReader) lit(s string) bool {
	if r.err != nil || len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

func (r *recordReader) expect(s string) {
	if !r.lit(s) {
		r.fail()
	}
}

// digits consumes a run of ASCII digits and reports its length.
func (r *recordReader) digits() int {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// intPart consumes the integer part of a JSON number — an optional minus,
// then 0 or a digit run without a leading zero — and reports whether the
// payload held one.
func (r *recordReader) intPart() bool {
	r.lit("-")
	from := r.i
	n := r.digits()
	return n == 1 || (n > 1 && r.b[from] != '0')
}

// int reads an integer as encoding/json does into an int, refusing one
// that overflows.
func (r *recordReader) int() int {
	start := r.i
	if !r.intPart() {
		r.fail()
		return 0
	}
	v, err := strconv.ParseInt(string(r.b[start:r.i]), 10, 64)
	if err != nil {
		r.fail()
	}
	return int(v)
}

// float reads a number in JSON's grammar and converts it as encoding/json
// does, refusing what strconv cannot represent.
func (r *recordReader) float() float64 {
	start := r.i
	if !r.intPart() || (r.lit(".") && r.digits() == 0) {
		r.fail()
		return 0
	}
	if r.lit("e") || r.lit("E") {
		if !r.lit("-") {
			r.lit("+")
		}
		if r.digits() == 0 {
			r.fail()
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(r.b[start:r.i]), 64)
	if err != nil {
		r.fail()
	}
	return f
}

// str reads a JSON string.
func (r *recordReader) str() string { return string(r.strBytes()) }

// words are the strings records repeat line after line: record and op
// kinds, mode tokens. word returns them without allocating.
var words = func() map[string]string {
	m := make(map[string]string)
	for _, w := range []string{recCreate, recOp, recShed, recDelete, recNext,
		string(core.OpStep), string(core.OpApply), string(core.OpRecommend), string(core.OpBack),
		core.UserDriven.Token(), core.RecommendationPowered.Token(), core.FullyAutomated.Token()} {
		m[w] = w
	}
	return m
}()

// word reads a JSON string that is likely one of words.
func (r *recordReader) word() string {
	b := r.strBytes()
	if w, ok := words[string(b)]; ok {
		return w
	}
	return string(b)
}

// plainByte marks the bytes a JSON string holds as themselves: printable
// ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strBytes reads a JSON string's contents: a slice of the payload when it
// holds no escape, or a decoded copy. It refuses raw control characters,
// invalid UTF-8 and escaped surrogates — none of which the encoder writes,
// and the last two of which encoding/json would rewrite to U+FFFD.
func (r *recordReader) strBytes() []byte {
	if !r.lit(`"`) {
		r.fail()
		return nil
	}
	start := r.i
	for r.i < len(r.b) && plainByte[r.b[r.i]] {
		r.i++
	}
	if r.i < len(r.b) && r.b[r.i] == '"' {
		r.i++
		return r.b[start : r.i-1]
	}
	buf := append([]byte(nil), r.b[start:r.i]...)
	for r.i < len(r.b) {
		c := r.b[r.i]
		switch {
		case c == '"':
			r.i++
			return buf
		case c < 0x20:
			r.fail()
			return nil
		case c == '\\':
			if r.i+1 >= len(r.b) {
				r.fail()
				return nil
			}
			e := r.b[r.i+1]
			r.i += 2
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				if len(r.b)-r.i < 4 {
					r.fail()
					return nil
				}
				cp, err := strconv.ParseUint(string(r.b[r.i:r.i+4]), 16, 32)
				if err != nil || (0xd800 <= cp && cp < 0xe000) {
					r.fail()
					return nil
				}
				r.i += 4
				buf = utf8.AppendRune(buf, rune(cp))
			default:
				r.fail()
				return nil
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			r.i++
		default:
			cp, size := utf8.DecodeRune(r.b[r.i:])
			if cp == utf8.RuneError && size == 1 {
				r.fail()
				return nil
			}
			buf = append(buf, r.b[r.i:r.i+size]...)
			r.i += size
		}
	}
	r.fail()
	return nil
}

// more reports whether a list continues: after the first element, a comma
// must precede each next one. An empty list is non-nil, as encoding/json
// decodes [] to.
func (r *recordReader) more(first bool) bool {
	if r.err != nil || r.lit("]") {
		return false
	}
	if !first {
		r.expect(",")
	}
	return r.err == nil
}

// floats reads null (a nil slice) or an array of numbers.
func (r *recordReader) floats() []float64 {
	if r.lit("null") {
		return nil
	}
	r.expect("[")
	out := []float64{}
	for first := true; r.more(first); first = false {
		out = append(out, r.float())
	}
	return out
}

func (r *recordReader) op(op *core.SessionOp) {
	r.expect(`{"kind":`)
	op.Kind = core.OpKind(r.word())
	if r.lit(`,"predicate":`) {
		op.Predicate = r.str()
	}
	if r.lit(`,"index":`) {
		op.Index = r.int()
	}
	if r.lit(`,"digests":[`) {
		// Read into room on the stack, then copied at the list's size.
		var room [8]string
		digests := room[:0]
		for first := true; r.more(first); first = false {
			digests = append(digests, r.str())
		}
		op.Digests = append(make([]string, 0, len(digests)), digests...)
	}
	if r.lit(`,"degraded":`) {
		op.Degraded = r.lit("true")
		if !op.Degraded {
			r.expect("false")
		}
	}
	if r.lit(`,"seen":[`) {
		op.Seen = []core.SeenDelta{}
		for first := true; r.more(first); first = false {
			var d core.SeenDelta
			r.expect(`{"dim":`)
			d.Dim = r.int()
			r.expect(`,"dist":`)
			d.Dist = r.floats()
			r.expect("}")
			op.Seen = append(op.Seen, d)
		}
	}
	if r.lit(`,"op_id":`) {
		op.OpID = r.str()
	}
	r.expect("}")
}

func (r *recordReader) snapshot() *core.SessionSnapshot {
	s := new(core.SessionSnapshot)
	r.expect(`{"version":`)
	s.Version = r.int()
	r.expect(`,"fingerprint":`)
	s.Fingerprint = r.str()
	r.expect(`,"mode":`)
	s.Mode = r.word()
	r.expect(`,"start":`)
	s.Start = r.str()
	if r.lit(`,"ops":[`) {
		s.Ops = []core.SessionOp{}
		for first := true; r.more(first); first = false {
			s.Ops = append(s.Ops, core.SessionOp{})
			r.op(&s.Ops[len(s.Ops)-1])
		}
	}
	if r.lit(`,"final":{"current":`) {
		f := new(core.FinalState)
		f.Current = r.str()
		r.expect(`,"steps":`)
		f.Steps = r.int()
		r.expect(`,"seen":`)
		r.seen(&f.Seen)
		r.expect("}")
		s.Final = f
	}
	r.expect("}")
	return s
}

func (r *recordReader) seen(st *ratingmap.SeenState) {
	r.expect("{")
	if r.lit(`"dists":[`) {
		st.Dists = [][]float64{}
		for first := true; r.more(first); first = false {
			st.Dists = append(st.Dists, r.floats())
		}
		r.expect(",")
	}
	if r.lit(`"dims":{`) {
		st.Dims = map[int]int{}
		for first := true; r.err == nil && !r.lit("}"); first = false {
			if !first {
				r.expect(",")
			}
			r.expect(`"`)
			k := r.int()
			r.expect(`":`)
			st.Dims[k] = r.int()
		}
		r.expect(",")
	}
	r.expect(`"total":`)
	st.Total = r.int()
	r.expect("}")
}
