package obs

import (
	"context"
	"sync"
	"time"
)

// SpanSink receives finished root spans. Implementations must be safe
// for concurrent use.
type SpanSink interface {
	// Collect is called once per finished root span with an immutable
	// snapshot of its whole tree.
	Collect(root *SpanData)
}

// SpanData is the immutable, JSON-friendly snapshot of one span.
type SpanData struct {
	Name string `json:"name"`
	// TraceID correlates the tree with its request: root spans carry the
	// context's trace ID (minting one when absent), so /debug/spans can
	// be filtered by the ID a client propagated via traceparent. Children
	// inherit the root's ID implicitly and leave the field empty.
	TraceID    TraceID        `json:"trace_id,omitempty"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanData    `json:"children,omitempty"`
}

// Span is one timed unit of work. Spans form trees: StartSpan under a
// context that already carries a span attaches a child. All methods are
// no-ops on a nil receiver, which is what StartSpan returns when no sink
// is installed — instrumented code needs no conditionals.
type Span struct {
	name  string
	start time.Time
	sink  SpanSink // non-nil only on roots
	trace TraceID  // non-empty only on roots

	mu       sync.Mutex
	duration time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value span attribute (values stay `any` so callers
// can attach counts, durations, and strings without formatting).
type Attr struct {
	Key   string
	Value any
}

type sinkKey struct{}
type spanKey struct{}

// WithSink returns a context under which StartSpan produces real spans
// delivered to sink when their root ends. A nil sink returns ctx
// unchanged.
func WithSink(ctx context.Context, sink SpanSink) context.Context {
	if sink == nil {
		return ctx
	}
	return context.WithValue(ctx, sinkKey{}, sink)
}

// StartSpan begins a span named name. If the context carries a parent
// span, the new span is attached as its child; otherwise it becomes a
// root bound to the context's sink. When no sink is installed the call
// is free: it returns (ctx, nil) and the nil span swallows SetAttr/End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background() //subdex:ctxflow nil-safe entry point: a nil ctx carries no caller deadline to sever
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		sink, _ := ctx.Value(sinkKey{}).(SpanSink)
		if sink == nil {
			return ctx, nil
		}
		// Roots bind the context's trace ID (minting one when absent) and
		// re-install it so every child span and downstream profile sees
		// the same ID the root was collected under.
		tid := TraceIDFrom(ctx)
		if tid == "" {
			tid = NewTraceID()
			ctx = WithTraceID(ctx, tid)
		}
		s := &Span{name: name, start: time.Now(), sink: sink, trace: tid}
		return context.WithValue(ctx, spanKey{}, s), s
	}
	s := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr attaches a key/value attribute. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span. Ending a root span snapshots the tree and hands
// it to the sink; double End is a no-op. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.duration = time.Since(s.start)
	s.mu.Unlock()
	if s.sink != nil {
		s.sink.Collect(s.snapshot())
	}
}

// snapshot deep-copies the span tree into SpanData. Children that never
// ended are snapshotted with their duration-so-far.
func (s *Span) snapshot() *SpanData {
	s.mu.Lock()
	d := s.duration
	if !s.ended {
		d = time.Since(s.start)
	}
	out := &SpanData{
		Name:       s.name,
		TraceID:    s.trace,
		Start:      s.start,
		DurationMS: float64(d.Microseconds()) / 1000,
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.snapshot())
	}
	return out
}

// RingSink keeps the most recent n root spans — the storage behind the
// server's /debug/spans endpoint.
type RingSink struct {
	ring *ring[*SpanData]
}

// NewRingSink builds a sink holding the latest n spans (n < 1 → 1).
func NewRingSink(n int) *RingSink {
	return &RingSink{ring: newRing[*SpanData](n)}
}

// Collect implements SpanSink.
func (r *RingSink) Collect(root *SpanData) {
	if r == nil || root == nil {
		return
	}
	r.ring.add(root)
}

// Snapshot returns the buffered spans newest first, restricted to roots
// carrying the given trace ID (trace "" disables the filter) and
// truncated to the newest limit spans (limit <= 0 disables truncation) —
// the /debug/spans query parameters.
func (r *RingSink) Snapshot(trace TraceID, limit int) []*SpanData {
	if r == nil {
		return nil
	}
	var keep func(*SpanData) bool
	if trace != "" {
		keep = func(sp *SpanData) bool { return sp.TraceID == trace }
	}
	return r.ring.newest(keep, limit)
}
