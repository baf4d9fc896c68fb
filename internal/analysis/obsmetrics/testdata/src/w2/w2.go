// Package w2 reuses a wide-event field that package w already shaped,
// once compatibly and once with a different type — the conflict is
// caught via package facts, proving rule 3 crosses package boundaries.
package w2

import "obs"

func record(e *obs.WideEvent) {
	e.Set("records_processed", 7)    // same type as w: accepted
	e.Set("trace_id", []byte("id;")) // want `field "trace_id" set with type \[\]byte \(was string`
}
