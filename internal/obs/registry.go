// Package obs is SubDEx's dependency-free observability layer: a
// lock-cheap metrics registry (counters, gauges, log-scale histograms)
// with a Prometheus-text-format encoder, and a lightweight span API with
// pluggable sinks (span.go).
//
// Everything is nil-safe by design: a nil *Registry hands out nil
// instruments, and every instrument method is a no-op on a nil receiver.
// Library users and tests that never install a registry therefore pay
// nothing — no allocation, no atomics, no locks — while a daemon that
// does install one gets full telemetry from the same code paths.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. The zero value is usable;
// a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored: counters are
// monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down. A nil Gauge is a
// no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (typically log-scale;
// see LogBuckets). Observation is lock-free: one atomic add for the
// bucket, one for the count, and a CAS loop for the running sum. A nil
// Histogram is a no-op.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets,
	// ascending; counts has len(bounds)+1 entries, the last being +Inf.
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Branchless-ish upper_bound: buckets are few (tens), linear scan is
	// cache-friendly and beats binary search at these sizes.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds — the Prometheus base
// unit for time.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LogBuckets returns count upper bounds in a geometric progression:
// start, start·factor, start·factor², … — the fixed log-scale bucket
// layout used throughout SubDEx.
func LogBuckets(start, factor float64, count int) []float64 {
	if count <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefBuckets covers interactive-latency territory: 250µs to ~8s, doubling.
var DefBuckets = LogBuckets(0.00025, 2, 16)

// RatioBuckets covers (0,1] quantities such as worker utilization.
var RatioBuckets = LogBuckets(1.0/64, 2, 7)

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered (name, labels) instrument.
type series struct {
	name   string
	labels []Label
	kind   metricKind
	help   string

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// Registry holds named instruments and encodes them in the Prometheus
// text exposition format. Instrument lookup takes one short mutex hold;
// the instruments themselves are lock-free, so the intended pattern is
// to resolve instruments once (at construction) and hammer them on hot
// paths. A nil *Registry hands out nil instruments, making the entire
// API a no-op.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	meta   map[string]seriesMeta
}

// seriesMeta is the per-NAME contract fixed at first registration: every
// later registration of the same name must agree on kind, help text, and
// label-key set, whatever its label values. lookup panics on a mismatch,
// and every test that builds a server runs every registration the server
// makes, so this is the whole check: no analyzer repeats it.
type seriesMeta struct {
	kind metricKind
	help string
	keys string // label keys, sorted, "\x00"-joined
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series), meta: make(map[string]seriesMeta)}
}

// labelKeySig renders the sorted label-key set as a comparison key.
func labelKeySig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, len(labels))
	for i, l := range labels {
		keys[i] = l.Key
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x00")
}

// seriesID builds the registry key of a (name, labels) pair.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup returns the existing series or registers a new one. The
// instrument itself is allocated here, while r.mu is held, so a series
// is never published with a nil instrument and concurrent first-use of
// the same (name, labels) resolves to one shared instrument.
//
// Re-registering a name with a different kind, different help text, or a
// different label-key set is a programmer error and panics: one scrape
// must never see one series family with contradictory metadata. (Label
// VALUES may differ freely — that is label fan-out.) bounds is only
// consulted for kindHistogram.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label) *series {
	id := seriesID(name, labels)
	keys := labelKeySig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.meta[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		// An empty help string makes no metadata claim: it is the
		// "fetch the existing instrument" spelling. The first non-empty
		// help wins and later non-empty helps must agree — the same
		// leniency the obsmetrics analyzer applies to non-constant help.
		if help != "" && m.help != "" && m.help != help {
			panic(fmt.Sprintf("obs: metric %q re-registered with different help (%q, was %q)", name, help, m.help))
		}
		if m.keys != keys {
			panic(fmt.Sprintf("obs: metric %q re-registered with different label keys (%q, was %q)",
				name, strings.ReplaceAll(keys, "\x00", ","), strings.ReplaceAll(m.keys, "\x00", ",")))
		}
		if m.help == "" && help != "" {
			m.help = help
			r.meta[name] = m
		}
	} else {
		r.meta[name] = seriesMeta{kind: kind, help: help, keys: keys}
	}
	if s, ok := r.series[id]; ok {
		return s
	}
	s := &series{name: name, labels: append([]Label(nil), labels...), kind: kind, help: help}
	switch kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		if bounds == nil {
			bounds = DefBuckets
		}
		s.histogram = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	r.series[id] = s
	return s
}

// Counter returns the counter registered under (name, labels), creating
// it on first use. Counter names should end in _total per Prometheus
// convention. Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).counter
}

// Gauge returns the gauge registered under (name, labels). Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels).gauge
}

// Histogram returns the histogram registered under (name, labels) with
// the given bucket upper bounds (DefBuckets when nil). Bounds are fixed
// at first registration; later calls reuse them. Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).histogram
}

// WritePrometheus encodes every registered series in the Prometheus text
// exposition format (version 0.0.4), grouped by metric name with one
// HELP/TYPE header per name, names sorted for stable output. Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return labelString(all[i].labels) < labelString(all[j].labels)
	})

	var b strings.Builder
	lastName := ""
	for _, s := range all {
		if s.name != lastName {
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, escapeHelp(s.help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind)
			lastName = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, labelString(s.labels), s.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, labelString(s.labels), formatFloat(s.gauge.Value()))
		case kindHistogram:
			writeHistogram(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram emits the cumulative _bucket series plus _sum and
// _count, with the series labels merged before the le label.
func writeHistogram(b *strings.Builder, s *series) {
	h := s.histogram
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", s.name,
			labelString(append(append([]Label(nil), s.labels...), L("le", formatFloat(bound)))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", s.name,
		labelString(append(append([]Label(nil), s.labels...), L("le", "+Inf"))), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", s.name, labelString(s.labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", s.name, labelString(s.labels), h.Count())
}

// labelString renders {k="v",...} or "" when there are no labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
