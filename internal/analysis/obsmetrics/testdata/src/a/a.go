// Package a exercises the registry rules: accepted constructor-time
// registrations, a name that is not a constant, and a hot-path lookup.
package a

import "obs"

// Metrics holds instruments resolved once at construction — the
// discipline the analyzer enforces.
type Metrics struct {
	steps   *obs.Counter
	depth   *obs.Gauge
	latency *obs.Histogram
}

// NewMetrics registers everything up front: all accepted.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		steps:   reg.Counter("subdex_engine_steps_total", "Engine steps executed.", obs.L("phase", "score")),
		depth:   reg.Gauge("subdex_session_depth", "Current exploration depth."),
		latency: reg.Histogram("subdex_step_duration_seconds", "Step latency.", nil, obs.L("phase", "score")),
	}
}

// Package-level initializers resolve once at init time: accepted.
var defaultReg = obs.NewRegistry()
var started = defaultReg.Counter("subdex_process_starts_total", "Process starts.")

var restarts *obs.Counter

func init() {
	restarts = defaultReg.Counter("subdex_process_restarts_total", "Process restarts.")
}

// newBad is constructor-shaped, so only the literal-name rule fires.
func newBad(reg *obs.Registry) {
	name := dynamicName()
	reg.Counter(name, "h") // want `must be a string literal or constant`
}

func dynamicName() string { return "subdex_oops_total" }

// Observe is not a constructor: the lookup itself is the violation,
// even though the name is impeccable.
func (m *Metrics) Observe(reg *obs.Registry) {
	reg.Counter("subdex_observe_calls_total", "Observe calls.").Inc() // want `registry lookup in Observe`
}
