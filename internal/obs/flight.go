// Flight recorder: a bounded ring of wide events — one structured,
// many-field record per unit of work (an exploration step, a failed
// request) — with trigger-based dumps. The ring is always cheap to feed;
// when something goes wrong (a 5xx, a degraded step, an SLO breach) a
// trigger writes the recent ring plus a goroutine/heap profile snapshot
// to disk, rate-limited per reason so a sustained failure cannot storm
// the filesystem. The live ring is served at /debug/flightrecorder.

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sync"
	"time"
)

// WideEvent is one flight-recorder record: an ordered list of
// snake_case-keyed fields. Build it fluently with Set; the obsmetrics
// analyzer enforces that keys are literal snake_case strings and that a
// key is never set with two different value types across the codebase.
// A WideEvent is built by one goroutine and immutable once recorded.
type WideEvent struct {
	fields []Attr
}

// NewWideEvent starts an empty event.
func NewWideEvent() *WideEvent { return &WideEvent{} }

// Set appends one field and returns the event for chaining. Nil-safe.
// Keys must be literal snake_case strings (enforced statically); setting
// the same key twice keeps both entries, last-writer-wins on render.
func (e *WideEvent) Set(key string, value any) *WideEvent {
	if e == nil {
		return nil
	}
	e.fields = append(e.fields, Attr{Key: key, Value: value})
	return e
}

// Get returns the last value set under key.
func (e *WideEvent) Get(key string) (any, bool) {
	if e == nil {
		return nil, false
	}
	for i := len(e.fields) - 1; i >= 0; i-- {
		if e.fields[i].Key == key {
			return e.fields[i].Value, true
		}
	}
	return nil, false
}

// MarshalJSON renders the event as a JSON object in field insertion
// order (duplicate keys keep the later entry only), so dumps read in the
// order the instrumentation wrote and diff stably.
func (e *WideEvent) MarshalJSON() ([]byte, error) {
	if e == nil {
		return []byte("null"), nil
	}
	drop := make(map[string]int, len(e.fields))
	for i, f := range e.fields {
		drop[f.Key] = i
	}
	var buf bytes.Buffer
	buf.WriteByte('{')
	first := true
	for i, f := range e.fields {
		if drop[f.Key] != i {
			continue
		}
		if !first {
			buf.WriteByte(',')
		}
		first = false
		k, err := json.Marshal(f.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(f.Value)
		if err != nil {
			return nil, fmt.Errorf("obs: wide event field %q: %w", f.Key, err)
		}
		buf.Write(k)
		buf.WriteByte(':')
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// flightRingSize bounds a FlightRecorder's event ring.
const flightRingSize = 256

// flightName names every dump's files ("server-<seq>-<reason>.jsonl")
// and its header: the server's recorder is the only one the module
// builds.
const flightName = "server"

// FlightOptions configure a FlightRecorder. The zero value records into
// the ring with dumps disabled.
type FlightOptions struct {
	// Dir is where triggered dumps are written; "" disables dumps (the
	// ring still records and serves).
	Dir string
	// MinInterval is the per-reason dump rate limit (default 30s):
	// repeated triggers for the same reason inside the window are
	// suppressed, so a failing SLO or a 5xx storm yields one dump, not
	// thousands.
	MinInterval time.Duration
	// Clock overrides time.Now for the rate limiter (tests).
	Clock func() time.Time
}

// FlightRecorder is a concurrency-safe bounded ring of wide events with
// trigger-based dumping. All methods are no-ops on a nil receiver. It
// keeps no dump counts: Trigger's result says what happened, and the
// caller counts it (the server in subdex_flight_dumps{,_suppressed}_total).
type FlightRecorder struct {
	dir         string
	minInterval time.Duration
	clock       func() time.Time
	ring        *ring[*WideEvent]

	mu       sync.Mutex
	lastDump map[string]time.Time
	seq      int
}

// NewFlightRecorder builds a recorder from opts.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	if opts.MinInterval <= 0 {
		opts.MinInterval = 30 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &FlightRecorder{
		dir:         opts.Dir,
		minInterval: opts.MinInterval,
		clock:       opts.Clock,
		ring:        newRing[*WideEvent](flightRingSize),
		lastDump:    make(map[string]time.Time),
	}
}

// DumpsEnabled reports whether triggers can write dumps (a Dir is set).
func (f *FlightRecorder) DumpsEnabled() bool { return f != nil && f.dir != "" }

// Record appends one event to the ring, stamping a "ts" field when the
// caller did not. Safe for concurrent use; nil-safe.
func (f *FlightRecorder) Record(ev *WideEvent) {
	if f == nil || ev == nil {
		return
	}
	if _, ok := ev.Get("ts"); !ok {
		ev.Set("ts", f.clock().UTC().Format(time.RFC3339Nano))
	}
	f.ring.add(ev)
}

// Snapshot returns buffered events newest first, optionally restricted
// to those whose "trace_id" field equals trace ("" disables the filter)
// and truncated to limit events (<= 0 disables truncation).
func (f *FlightRecorder) Snapshot(trace string, limit int) []*WideEvent {
	if f == nil {
		return nil
	}
	var keep func(*WideEvent) bool
	if trace != "" {
		keep = func(ev *WideEvent) bool {
			v, ok := ev.Get("trace_id")
			return ok && fmt.Sprint(v) == trace
		}
	}
	return f.ring.newest(keep, limit)
}

// Trigger requests a dump for reason and returns the JSONL path of the
// dump it wrote. With dumps disabled it is a no-op ("", nil). Otherwise
// it is rate-limited per reason: inside MinInterval of the previous
// attempt for the same reason the trigger is suppressed ("", nil). A
// dump writes two files under Dir — the ring as JSONL (a header line,
// then events oldest first) and a goroutine+heap profile snapshot — and
// only a dump with both files written returns a path. A failed dump
// returns its error and still arms the rate limit, so a failing disk is
// not retried on every trigger. reason names the dump's files, so it is
// a snake_case literal (internal/daemon's signal census checks each one).
// File I/O happens outside the recorder lock.
func (f *FlightRecorder) Trigger(reason string) (path string, err error) {
	if f == nil || f.dir == "" {
		return "", nil
	}
	f.mu.Lock()
	now := f.clock()
	if last, ok := f.lastDump[reason]; ok && now.Sub(last) < f.minInterval {
		f.mu.Unlock()
		return "", nil
	}
	f.lastDump[reason] = now
	f.seq++
	seq := f.seq
	f.mu.Unlock()

	events := f.ring.newest(nil, 0)
	// Oldest first: a dump reads chronologically.
	slices.Reverse(events)
	base := fmt.Sprintf("%s-%03d-%s", flightName, seq, reason)
	path = filepath.Join(f.dir, base+".jsonl")
	if err := f.writeDump(path, reason, now, events); err != nil {
		return "", err
	}
	if err := writeProfileSnapshot(filepath.Join(f.dir, base+".profiles.txt")); err != nil {
		return "", err
	}
	return path, nil
}

// writeDump writes the JSONL dump file.
func (f *FlightRecorder) writeDump(path, reason string, at time.Time, events []*WideEvent) error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	hdr := map[string]any{
		"flight_recorder": flightName,
		"reason":          reason,
		"at":              at.UTC().Format(time.RFC3339Nano),
		"events":          len(events),
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeProfileSnapshot dumps the goroutine and heap profiles in their
// human-readable text form — the "what was the process doing" half of a
// flight-recorder dump.
func writeProfileSnapshot(path string) error {
	var buf bytes.Buffer
	for _, name := range []string{"goroutine", "heap"} {
		fmt.Fprintf(&buf, "=== %s profile ===\n", name)
		if err := pprof.Lookup(name).WriteTo(&buf, 1); err != nil {
			fmt.Fprintf(&buf, "(error: %v)\n", err)
		}
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
