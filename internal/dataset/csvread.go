package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"io"
)

// The two ways a record can be malformed, worded as encoding/csv words them.
var (
	errBareQuote = errors.New(`bare " in non-quoted-field`)
	errQuote     = errors.New(`extraneous or missing " in quoted-field`)
)

// recordReader reads the CSV records LoadDir parses, with the semantics
// encoding/csv gives them with FieldsPerRecord -1 and no lazy quotes: a
// field is quoted when its first byte is '"', "" in a quoted field is one
// '"', a quoted field may hold ',' and span lines, a '"' anywhere else is
// an error, "\r\n" ends a line as '\n' does (inside a quoted field too), a
// '\r' that ends the input is dropped, and a blank line is skipped.
// Unlike encoding/csv it makes no string per record: read returns a
// record's fields as byte slices that the next read overwrites, so the
// caller copies only what it keeps. FuzzReadEntityCSV and FuzzReadRatingCSV
// hold it to encoding/csv.
type recordReader struct {
	br *bufio.Reader
	// line counts the physical lines read; start is the one the last
	// record began on.
	line, start int
	fields      [][]byte
	long        []byte // a line longer than br's buffer
	// A record with a '"' is unescaped into rec, field f ending at ends[f].
	rec  []byte
	ends []int
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// read returns the next record, or io.EOF after the last. A line with no
// '"', which is nearly every line a saved directory holds, is split in
// place; readQuoted would parse it too, but copies every field (EXPERIMENTS.md
// "PR 40": a Yelp load about 1.3x slower through readQuoted alone).
func (r *recordReader) read() ([][]byte, error) {
	var line []byte
	var nl bool
	for len(line) == 0 {
		var err error
		if line, nl, err = r.readLine(); err != nil {
			return nil, err
		}
	}
	r.start = r.line
	if bytes.IndexByte(line, '"') >= 0 {
		return r.readQuoted(line, nl)
	}
	r.fields = r.fields[:0]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			break
		}
		r.fields = append(r.fields, line[:i])
		line = line[i+1:]
	}
	r.fields = append(r.fields, line)
	return r.fields, nil
}

// readQuoted parses a record whose first line, line, holds a '"'. nl says
// whether line ended in a newline, which a quoted field carries on into the
// next line.
func (r *recordReader) readQuoted(line []byte, nl bool) ([][]byte, error) {
	r.rec, r.ends = r.rec[:0], r.ends[:0]
	for more := true; more; {
		if len(line) == 0 || line[0] != '"' {
			field := line
			i := bytes.IndexByte(line, ',')
			if i >= 0 {
				field, line = line[:i], line[i+1:]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return nil, errBareQuote
			}
			r.rec = append(r.rec, field...)
			r.ends = append(r.ends, len(r.rec))
			more = i >= 0
			continue
		}
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			if i < 0 {
				r.rec = append(r.rec, line...)
				if !nl {
					return nil, errQuote
				}
				r.rec = append(r.rec, '\n')
				var err error
				if line, nl, err = r.readLine(); err != nil {
					if err == io.EOF {
						err = errQuote
					}
					return nil, err
				}
				continue
			}
			r.rec = append(r.rec, line[:i]...)
			line = line[i+1:]
			if len(line) > 0 && line[0] == '"' {
				r.rec = append(r.rec, '"')
				line = line[1:]
				continue
			}
			if len(line) > 0 && line[0] != ',' {
				return nil, errQuote
			}
			r.ends = append(r.ends, len(r.rec))
			more = len(line) > 0
			if more {
				line = line[1:]
			}
			break
		}
	}
	r.fields = r.fields[:0]
	from := 0
	for _, end := range r.ends {
		r.fields = append(r.fields, r.rec[from:end])
		from = end
	}
	return r.fields, nil
}

// readLine returns the next line without its "\n" or "\r\n", and whether
// it had one; the last line loses a final '\r' instead. It returns io.EOF
// only when no byte is left.
func (r *recordReader) readLine() (line []byte, nl bool, err error) {
	line, err = r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if len(line) == 0 || err != nil && err != io.EOF {
		return nil, false, err
	}
	r.line++
	if nl = err == nil; nl {
		line = line[:len(line)-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nl, nil
}
