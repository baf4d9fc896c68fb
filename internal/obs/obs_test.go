package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives the entire API through nil receivers: nothing may
// panic, and all reads return zeros. This is the "zero-cost when not
// installed" contract the instrumented hot paths rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h", "h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	g.Inc()
	g.Dec()
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	// Spans without a sink are nil and fully inert.
	ctx, span := StartSpan(context.Background(), "root")
	if span != nil {
		t.Fatal("StartSpan without sink must return nil span")
	}
	span.SetAttr("k", "v")
	span.End()
	span.End()
	_, child := StartSpan(ctx, "child")
	child.End()

	var ring *RingSink
	ring.Collect(&SpanData{})
	if ring.Snapshot("", 0) != nil {
		t.Fatal("nil ring snapshot must be nil")
	}
	// nil context must not panic either.
	_, s := StartSpan(nil, "x") //nolint:staticcheck // deliberate nil ctx
	s.End()
}

// TestConcurrentHammer hammers one counter, gauge, and histogram from
// many goroutines; run under -race this doubles as the data-race proof,
// and the final values prove no increment is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve through the registry inside the goroutine too, so
			// the lookup path is exercised concurrently.
			c := r.Counter("hammer_total", "hammered")
			g := r.Gauge("hammer_gauge", "hammered")
			h := r.Histogram("hammer_seconds", "hammered")
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j%7) * 0.003)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hammer_total", "").Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: got %d want %d", got, goroutines*perG)
	}
	if got := r.Gauge("hammer_gauge", "").Value(); got != 0 {
		t.Fatalf("gauge should balance to 0, got %v", got)
	}
	h := r.Histogram("hammer_seconds", "")
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram lost observations: got %d", h.Count())
	}
	wantSum := float64(goroutines) * perGSum(perG)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum: got %v want %v", h.Sum(), wantSum)
	}
}

// TestConcurrentFirstUse is the regression test for the lazy-creation
// race: many goroutines racing on the *first* resolution of the same
// fresh series (the middleware pattern — resolve per request) while
// WritePrometheus runs concurrently. Under the old code this lost
// increments (two instruments allocated, one overwritten) and could
// panic in writeHistogram on a published-but-nil histogram; now
// instruments are born inside the registry lock, so every goroutine
// shares one instrument and the encoder never sees a nil one.
func TestConcurrentFirstUse(t *testing.T) {
	const goroutines, rounds = 16, 50
	for round := 0; round < rounds; round++ {
		r := NewRegistry()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				r.Counter("first_use_total", "h").Inc()
				r.Gauge("first_use_gauge", "h").Add(1)
				r.Histogram("first_use_seconds", "h").Observe(0.01)
				// Encode concurrently with first-use registration.
				_ = r.WritePrometheus(&strings.Builder{})
			}()
		}
		close(start)
		wg.Wait()
		if got := r.Counter("first_use_total", "").Value(); got != goroutines {
			t.Fatalf("round %d: counter lost first-use increments: got %d want %d",
				round, got, goroutines)
		}
		if got := r.Gauge("first_use_gauge", "").Value(); got != goroutines {
			t.Fatalf("round %d: gauge lost first-use adds: got %v", round, got)
		}
		if got := r.Histogram("first_use_seconds", "").Count(); got != goroutines {
			t.Fatalf("round %d: histogram lost first-use observations: got %d", round, got)
		}
	}
}

func perGSum(n int) float64 {
	s := 0.0
	for j := 0; j < n; j++ {
		s += float64(j%7) * 0.003
	}
	return s
}

// TestPrometheusGolden pins the text exposition format byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("subdex_demo_total", "demo counter", L("kind", "a")).Add(3)
	r.Counter("subdex_demo_total", "demo counter", L("kind", "b")).Add(1)
	r.Gauge("subdex_demo_gauge", "demo gauge").Set(2.5)
	h := r.Histogram("subdex_demo_seconds", "demo histogram")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP subdex_demo_gauge demo gauge
# TYPE subdex_demo_gauge gauge
subdex_demo_gauge 2.5
# HELP subdex_demo_seconds demo histogram
# TYPE subdex_demo_seconds histogram
subdex_demo_seconds_bucket{le="0.00025"} 0
subdex_demo_seconds_bucket{le="0.0005"} 0
subdex_demo_seconds_bucket{le="0.001"} 0
subdex_demo_seconds_bucket{le="0.002"} 0
subdex_demo_seconds_bucket{le="0.004"} 0
subdex_demo_seconds_bucket{le="0.008"} 0
subdex_demo_seconds_bucket{le="0.016"} 0
subdex_demo_seconds_bucket{le="0.032"} 0
subdex_demo_seconds_bucket{le="0.064"} 1
subdex_demo_seconds_bucket{le="0.128"} 1
subdex_demo_seconds_bucket{le="0.256"} 1
subdex_demo_seconds_bucket{le="0.512"} 3
subdex_demo_seconds_bucket{le="1.024"} 3
subdex_demo_seconds_bucket{le="2.048"} 3
subdex_demo_seconds_bucket{le="4.096"} 3
subdex_demo_seconds_bucket{le="8.192"} 3
subdex_demo_seconds_bucket{le="+Inf"} 4
subdex_demo_seconds_sum 100.05
subdex_demo_seconds_count 4
# HELP subdex_demo_total demo counter
# TYPE subdex_demo_total counter
subdex_demo_total{kind="a"} 3
subdex_demo_total{kind="b"} 1
`
	if b.String() != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestRegistryReuseAndMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h", L("k", "v1"))
	b := r.Counter("x_total", "h", L("k", "v1"))
	if a != b {
		t.Fatal("same (name,labels) must return the same counter")
	}
	if r.Counter("x_total", "h", L("k", "v2")) == a {
		t.Fatal("different label values must be a different series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "h", L("k", "v3"))
}

// TestRegistryMetadataContract pins the per-name registration contract:
// the first registration fixes (kind, help, label-key set) and any later
// registration that disagrees panics, while label-VALUE fan-out over the
// same keys is the supported pattern. This is the runtime twin of the
// obsmetrics analyzer's duplicate-registration rule — the two must not
// drift apart.
func TestRegistryMetadataContract(t *testing.T) {
	mustPanic := func(t *testing.T, substr string, f func()) {
		t.Helper()
		defer func() {
			p := recover()
			if p == nil {
				t.Fatalf("expected panic containing %q", substr)
			}
			if s, _ := p.(string); !strings.Contains(s, substr) {
				t.Fatalf("panic %v does not mention %q", p, substr)
			}
		}()
		f()
	}

	t.Run("help mismatch panics", func(t *testing.T) {
		r := NewRegistry()
		r.Counter("subdex_x_total", "first help", L("route", "a"))
		mustPanic(t, "different help", func() {
			r.Counter("subdex_x_total", "second help", L("route", "a"))
		})
	})
	t.Run("label key mismatch panics", func(t *testing.T) {
		r := NewRegistry()
		r.Counter("subdex_x_total", "h", L("route", "a"))
		mustPanic(t, "different label keys", func() {
			r.Counter("subdex_x_total", "h", L("code", "200"))
		})
	})
	t.Run("kind mismatch panics across label values", func(t *testing.T) {
		r := NewRegistry()
		r.Counter("subdex_x_total", "h", L("route", "a"))
		mustPanic(t, "re-registered as", func() {
			r.Gauge("subdex_x_total", "h", L("route", "b"))
		})
	})
	t.Run("label value fan-out is fine", func(t *testing.T) {
		r := NewRegistry()
		a := r.Counter("subdex_x_total", "h", L("route", "a"))
		b := r.Counter("subdex_x_total", "h", L("route", "b"))
		if a == b {
			t.Fatal("distinct label values must yield distinct series")
		}
		// Key ORDER is irrelevant: the signature is sorted.
		c1 := r.Counter("subdex_y_total", "h", L("route", "a"), L("code", "200"))
		c2 := r.Counter("subdex_y_total", "h", L("code", "201"), L("route", "b"))
		if c1 == nil || c2 == nil {
			t.Fatal("reordered label keys must register cleanly")
		}
	})
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", L("p", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{p="a\"b\\c\n"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}
