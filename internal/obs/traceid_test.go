package obs

import (
	"context"
	"strings"
	"testing"
)

func TestNewTraceIDValid(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if !id.Valid() {
			t.Fatalf("NewTraceID() = %q, not valid", id)
		}
		if seen[id] {
			t.Fatalf("NewTraceID() repeated %q", id)
		}
		seen[id] = true
	}
}

func TestNewSpanID(t *testing.T) {
	id := NewSpanID()
	if len(id) != spanIDHexLen || !isLowerHex(id) || id == zeroSpanID {
		t.Fatalf("NewSpanID() = %q, want 16 non-zero lowercase hex chars", id)
	}
}

func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID(42, 7, 3)
	b := DeriveTraceID(42, 7, 3)
	if a != b {
		t.Fatalf("DeriveTraceID not deterministic: %q vs %q", a, b)
	}
	if !a.Valid() {
		t.Fatalf("DeriveTraceID produced invalid ID %q", a)
	}
	if c := DeriveTraceID(42, 7, 4); c == a {
		t.Fatalf("DeriveTraceID collision across different parts: %q", c)
	}
}

func TestTraceIDValid(t *testing.T) {
	cases := []struct {
		id   TraceID
		want bool
	}{
		{"4bf92f3577b34da6a3ce929d0e0e4736", true},
		{TraceID(zeroTraceID), false},
		{"", false},
		{"4bf92f3577b34da6a3ce929d0e0e473", false},   // short
		{"4bf92f3577b34da6a3ce929d0e0e47361", false}, // long
		{"4BF92F3577B34DA6A3CE929D0E0E4736", false},  // uppercase
		{"4bf92f3577b34da6a3ce929d0e0e473g", false},  // non-hex
	}
	for _, c := range cases {
		if got := c.id.Valid(); got != c.want {
			t.Errorf("TraceID(%q).Valid() = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestWithTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	ctx := WithTraceID(context.Background(), id)
	if got := TraceIDFrom(ctx); got != id {
		t.Fatalf("TraceIDFrom = %q, want %q", got, id)
	}
	if got := TraceIDFrom(context.Background()); got != "" {
		t.Fatalf("TraceIDFrom(empty ctx) = %q, want empty", got)
	}
	if got := TraceIDFrom(nil); got != "" {
		t.Fatalf("TraceIDFrom(nil) = %q, want empty", got)
	}
	// Invalid IDs never enter the context.
	ctx = WithTraceID(context.Background(), "nope")
	if got := TraceIDFrom(ctx); got != "" {
		t.Fatalf("invalid ID leaked into context: %q", got)
	}
}

func TestParseTraceparent(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const pid = "00f067aa0ba902b7"
	cases := []struct {
		name   string
		header string
		ok     bool
	}{
		{"canonical", "00-" + tid + "-" + pid + "-01", true},
		{"unsampled", "00-" + tid + "-" + pid + "-00", true},
		{"future version", "42-" + tid + "-" + pid + "-01", true},
		{"future version with extra field", "42-" + tid + "-" + pid + "-01-extra", true},
		{"version ff", "ff-" + tid + "-" + pid + "-01", false},
		{"uppercase version", "A0-" + tid + "-" + pid + "-01", false},
		{"zero trace id", "00-" + zeroTraceID + "-" + pid + "-01", false},
		{"zero parent id", "00-" + tid + "-" + zeroSpanID + "-01", false},
		{"truncated", "00-" + tid + "-" + pid, false},
		{"bad separator", "00_" + tid + "-" + pid + "-01", false},
		{"trailing junk", "00-" + tid + "-" + pid + "-01x", false},
		{"uppercase trace id", "00-" + strings.ToUpper(tid) + "-" + pid + "-01", false},
		{"empty", "", false},
	}
	for _, c := range cases {
		gotTID, gotPID, ok := ParseTraceparent(c.header)
		if ok != c.ok {
			t.Errorf("%s: ParseTraceparent(%q) ok = %v, want %v", c.name, c.header, ok, c.ok)
			continue
		}
		if ok && (gotTID != TraceID(tid) || gotPID != pid) {
			t.Errorf("%s: got (%q, %q), want (%q, %q)", c.name, gotTID, gotPID, tid, pid)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	parent := NewSpanID()
	h := Traceparent(id, parent)
	if h == "" {
		t.Fatal("Traceparent returned empty for valid inputs")
	}
	gotTID, gotPID, ok := ParseTraceparent(h)
	if !ok || gotTID != id || gotPID != parent {
		t.Fatalf("round trip failed: header %q parsed to (%q, %q, %v)", h, gotTID, gotPID, ok)
	}
	if Traceparent("bad", parent) != "" {
		t.Error("Traceparent accepted invalid trace ID")
	}
	if Traceparent(id, "short") != "" {
		t.Error("Traceparent accepted invalid parent ID")
	}
}

func TestRootSpanBindsTraceID(t *testing.T) {
	sink := NewRingSink(8)
	base := WithSink(context.Background(), sink)

	// A context-carried ID lands on the root.
	want := NewTraceID()
	ctx, root := StartSpan(WithTraceID(base, want), "outer")
	_, child := StartSpan(ctx, "inner")
	child.End()
	root.End()

	// Without one, the root mints an ID and re-installs it in ctx.
	ctx2, root2 := StartSpan(base, "minted")
	minted := TraceIDFrom(ctx2)
	if !minted.Valid() {
		t.Fatalf("root did not install a minted trace ID (got %q)", minted)
	}
	root2.End()

	spans := sink.Snapshot("", 0)
	if len(spans) != 2 {
		t.Fatalf("got %d root spans, want 2", len(spans))
	}
	// Newest first: minted root, then the explicit one.
	if spans[0].TraceID != minted {
		t.Errorf("minted root TraceID = %q, want %q", spans[0].TraceID, minted)
	}
	if spans[1].TraceID != want {
		t.Errorf("explicit root TraceID = %q, want %q", spans[1].TraceID, want)
	}
	if len(spans[1].Children) != 1 || spans[1].Children[0].TraceID != "" {
		t.Errorf("child spans must leave TraceID empty (inherit from root): %+v", spans[1].Children)
	}
}

func TestRingSinkSnapshotFiltered(t *testing.T) {
	sink := NewRingSink(8)
	base := WithSink(context.Background(), sink)
	ids := make([]TraceID, 5)
	for i := range ids {
		ids[i] = DeriveTraceID(uint64(i) + 1)
		_, s := StartSpan(WithTraceID(base, ids[i]), "op")
		s.End()
	}

	if got := sink.Snapshot("", 0); len(got) != 5 {
		t.Fatalf("unfiltered: got %d spans, want 5", len(got))
	}
	got := sink.Snapshot("", 2)
	if len(got) != 2 || got[0].TraceID != ids[4] || got[1].TraceID != ids[3] {
		t.Fatalf("limit=2 should keep the 2 newest, got %+v", got)
	}
	got = sink.Snapshot(ids[1], 0)
	if len(got) != 1 || got[0].TraceID != ids[1] {
		t.Fatalf("trace filter: got %+v, want just %q", got, ids[1])
	}
	if got := sink.Snapshot("deadbeefdeadbeefdeadbeefdeadbeef", 0); len(got) != 0 {
		t.Fatalf("unknown trace should match nothing, got %d", len(got))
	}
}
