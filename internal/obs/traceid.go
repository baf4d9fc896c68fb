package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
)

// TraceID is a W3C-trace-context trace identifier: 32 lowercase hex
// characters (16 bytes), or "" when a context carries none. One trace ID
// correlates everything a single logical operation touched — the HTTP
// request, its engine phase spans, its wide event in the flight
// recorder, and the load-generator step that issued it.
type TraceID string

// spanIDHexLen and traceIDHexLen are the W3C field widths.
const (
	traceIDHexLen = 32
	spanIDHexLen  = 16
)

// zeroTraceID and zeroSpanID are invalid per the W3C spec.
const (
	zeroTraceID = "00000000000000000000000000000000"
	zeroSpanID  = "0000000000000000"
)

// NewTraceID mints a random trace ID (crypto/rand; never all-zero).
func NewTraceID() TraceID {
	var b [16]byte
	return TraceID(randomHex(b[:]))
}

// NewSpanID mints a random 16-hex-character parent/span ID for
// traceparent headers.
func NewSpanID() string {
	var b [8]byte
	return randomHex(b[:])
}

// randomHex fills b with random bytes and renders it as hex, never all
// zero (the W3C invalid value). crypto/rand never fails on supported
// platforms; a buffer a failure left zero is made valid the same way.
func randomHex(b []byte) string {
	_, _ = rand.Read(b)
	if allZero(b) {
		b[len(b)-1] = 1
	}
	return hex.EncodeToString(b)
}

// DeriveTraceID builds a deterministic trace ID from integer parts
// (FNV-1a 128 over their big-endian encoding). The workload harness uses
// it to stamp per-step IDs from (seed, user, step) without consuming any
// RNG draws, so tracing can never perturb which path a seed produces.
func DeriveTraceID(parts ...uint64) TraceID {
	h := fnv.New128a()
	var buf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(buf[:], p)
		_, _ = h.Write(buf[:])
	}
	sum := h.Sum(nil)
	if allZero(sum) {
		sum[len(sum)-1] = 1
	}
	return TraceID(hex.EncodeToString(sum))
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Valid reports whether t is a well-formed, non-zero trace ID.
func (t TraceID) Valid() bool {
	return len(t) == traceIDHexLen && isLowerHex(string(t)) && string(t) != zeroTraceID
}

type traceIDKey struct{}

// WithTraceID installs a trace ID in the context; downstream spans and
// profiles pick it up via TraceIDFrom. An invalid ID returns ctx
// unchanged.
func WithTraceID(ctx context.Context, t TraceID) context.Context {
	if !t.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, t)
}

// TraceIDFrom extracts the context's trace ID, or "".
func TraceIDFrom(ctx context.Context) TraceID {
	if ctx == nil {
		return ""
	}
	t, _ := ctx.Value(traceIDKey{}).(TraceID)
	return t
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<trace-id>-<parent-id>-<flags>"). It accepts any non-ff version
// whose first four fields have the version-00 widths, per the spec's
// forward-compatibility rule, and rejects all-zero IDs.
func ParseTraceparent(h string) (trace TraceID, parent string, ok bool) {
	if len(h) < 55 {
		return "", "", false
	}
	if len(h) > 55 && h[55] != '-' {
		return "", "", false
	}
	version, rest := h[:2], h[3:55]
	if !isLowerHex(version) || version == "ff" || h[2] != '-' {
		return "", "", false
	}
	tid, pid, flags := rest[:32], rest[33:49], rest[50:52]
	if rest[32] != '-' || rest[49] != '-' {
		return "", "", false
	}
	if !isLowerHex(tid) || !isLowerHex(pid) || !isLowerHex(flags) {
		return "", "", false
	}
	if tid == zeroTraceID || pid == zeroSpanID {
		return "", "", false
	}
	return TraceID(tid), pid, true
}

// Traceparent renders a version-00 traceparent header for the given
// trace and parent-span IDs (sampled flag set). An invalid input yields
// "" so callers can skip header injection with a plain emptiness check.
func Traceparent(t TraceID, parent string) string {
	if !t.Valid() || len(parent) != spanIDHexLen || !isLowerHex(parent) || parent == zeroSpanID {
		return ""
	}
	return "00-" + string(t) + "-" + parent + "-01"
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
