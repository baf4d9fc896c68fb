// Package w exercises the wide-event field discipline (rule 3):
// accepted snake_case literal keys, every key-shape violation, and
// in-package type conflicts.
package w

import "obs"

// record sets well-formed fields; all accepted (Set is not a registry
// lookup, so it may run anywhere, including hot paths).
func record() *obs.WideEvent {
	return obs.NewWideEvent().
		Set("op", "step").
		Set("trace_id", "4bf92f3577b34da6").
		Set("duration_ms", 1.5).
		Set("records_processed", 42).
		Set("degraded", false)
}

func badKeys(e *obs.WideEvent) {
	e.Set("CamelCase", 1)   // want `not snake_case`
	e.Set("kebab-case", 1)  // want `not snake_case`
	e.Set("_leading", 1)    // want `not snake_case`
	e.Set("trailing_", 1)   // want `not snake_case`
	e.Set("double__bar", 1) // want `not snake_case`
	e.Set("9starts", 1)     // want `not snake_case`
	key := dyn()
	e.Set(key, 1) // want `must be a string literal or constant`
}

func dyn() string { return "x" }

func conflictingShapes(e *obs.WideEvent) {
	// Same field, same static type: accepted — that is normal reuse.
	e.Set("op", "auto")
	e.Set("duration_ms", 2.25)
	// Same field, different static type: one name must mean one shape.
	e.Set("op", 7)              // want `field "op" set with type int \(was string`
	e.Set("duration_ms", "3ms") // want `field "duration_ms" set with type string \(was float64`
}
