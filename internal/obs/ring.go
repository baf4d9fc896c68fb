package obs

import "sync"

// ring is a bounded, concurrency-safe buffer that keeps the newest items
// added to it: the storage behind RingSink (/debug/spans) and the
// FlightRecorder (/debug/flightrecorder), which serve it with the same
// trace and limit filters.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	full bool
}

// newRing holds the latest n items (n < 1 → 1).
func newRing[T any](n int) *ring[T] {
	return &ring[T]{buf: make([]T, max(n, 1))}
}

func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// newest returns the buffered items newest first, keeping only those keep
// accepts (nil keeps all), at most limit of them (limit <= 0: no cap).
// keep runs under the ring's lock, so it must only read the item.
func (r *ring[T]) newest(keep func(T) bool, limit int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]T, 0, n)
	for i := 0; i < n && (limit <= 0 || len(out) < limit); i++ {
		v := r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
		if keep == nil || keep(v) {
			out = append(out, v)
		}
	}
	return out
}
