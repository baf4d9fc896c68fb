package workload

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Scrape is a parsed snapshot of a Prometheus text exposition — the
// format internal/obs writes and /metrics serves. Harnesses scrape
// instead of re-reading instruments so they work identically against an
// in-process registry and a child or remote server (and so the workload
// package itself never registers metrics, keeping the obsmetrics
// registration discipline trivially satisfied). Every sample is kept
// under its full series name: a histogram's _bucket, _sum and _count
// lines are plain samples like any counter's.
type Scrape struct {
	// values holds every sample keyed by canonical series id.
	values map[string]float64
}

// ParseMetrics parses a Prometheus text exposition.
func ParseMetrics(r io.Reader) (*Scrape, error) {
	s := &Scrape{values: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, labels, value, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("workload: metrics line %d: %w", line, err)
		}
		s.values[seriesKey(name, labels)] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// FetchMetrics GETs and parses a /metrics endpoint.
func FetchMetrics(ctx context.Context, hc *http.Client, url string) (*Scrape, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("workload: metrics scrape: status %d", resp.StatusCode)
	}
	return ParseMetrics(io.LimitReader(resp.Body, 64<<20))
}

// Sum adds every sample of a counter/gauge family regardless of labels.
func (s *Scrape) Sum(name string) float64 {
	total := 0.0
	prefix := name + "{"
	for id, v := range s.values {
		if id == name || strings.HasPrefix(id, prefix) {
			total += v
		}
	}
	return total
}

// parseSample splits one exposition line into name, labels, and value.
func parseSample(line string) (string, []string, float64, error) {
	name := line
	var labels []string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unbalanced label braces")
		}
		var err error
		labels, err = parseLabels(line[i+1 : j])
		if err != nil {
			return "", nil, 0, err
		}
		name = line[:i]
		line = name + " " + strings.TrimSpace(line[j+1:])
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", nil, 0, fmt.Errorf("sample without value")
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", fields[1])
	}
	return fields[0], labels, v, nil
}

// parseLabels parses `k1="v1",k2="v2"` into "k=v"-normalized pairs,
// handling the exposition escapes (\\, \n, \").
func parseLabels(s string) ([]string, error) {
	var out []string
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '='")
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %q without quoted value", key)
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		s = strings.TrimPrefix(strings.TrimSpace(s[i+1:]), ",")
		s = strings.TrimSpace(s)
		out = append(out, key+"="+strconv.Quote(val.String()))
	}
	return out, nil
}

// seriesKey renders the canonical id of a series: name{sorted labels}.
func seriesKey(name string, labels any) string {
	var pairs []string
	switch ls := labels.(type) {
	case []string:
		pairs = append(pairs, ls...)
	case map[string]string:
		for k, v := range ls {
			pairs = append(pairs, k+"="+strconv.Quote(v))
		}
	}
	if len(pairs) == 0 {
		return name
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}
