// Package obs is a minimal stand-in for subdex/internal/obs: just
// enough surface (Registry, Label, the three instrument kinds) for the
// obsmetrics fixtures to type-check. The analyzer matches registry
// types by package-path suffix, so "obs" here is indistinguishable from
// the real package — and, like the real package, it is itself exempt.
package obs

// Label is one metric label.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotone counter.
type Counter struct{ n int64 }

// Inc increments the counter.
func (c *Counter) Inc() { c.n++ }

// Gauge is a point-in-time value.
type Gauge struct{ v float64 }

// Set sets the gauge.
func (g *Gauge) Set(v float64) { g.v = v }

// Histogram is a bucketed distribution.
type Histogram struct{ sum float64 }

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.sum += v }

// Registry owns all series.
type Registry struct{}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers/returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter { return &Counter{} }

// Gauge registers/returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge { return &Gauge{} }

// Histogram registers/returns a histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram { return &Histogram{} }

// WideEvent is one structured flight-recorder record.
type WideEvent struct{ n int }

// NewWideEvent builds an empty event.
func NewWideEvent() *WideEvent { return &WideEvent{} }

// Set appends a field, chainable.
func (e *WideEvent) Set(key string, value any) *WideEvent { e.n++; return e }
