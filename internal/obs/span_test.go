package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// collectSink records collected roots for assertions.
type collectSink struct {
	mu    sync.Mutex
	roots []*SpanData
}

func (c *collectSink) Collect(root *SpanData) {
	c.mu.Lock()
	c.roots = append(c.roots, root)
	c.mu.Unlock()
}

func TestSpanTree(t *testing.T) {
	sink := &collectSink{}
	ctx := WithSink(context.Background(), sink)

	ctx, root := StartSpan(ctx, "step")
	if root == nil {
		t.Fatal("sink installed, span must be real")
	}
	root.SetAttr("selection", "TRUE")

	cctx, gen := StartSpan(ctx, "generate")
	_, phase := StartSpan(cctx, "phase")
	phase.SetAttr("phase", 0)
	phase.End()
	gen.End()

	_, rec := StartSpan(ctx, "recommend")
	rec.SetAttr("candidates", 12)
	rec.End()

	if len(sink.roots) != 0 {
		t.Fatal("sink must only see roots, after they end")
	}
	root.End()
	if len(sink.roots) != 1 {
		t.Fatalf("want 1 root, got %d", len(sink.roots))
	}
	d := sink.roots[0]
	if d.Name != "step" || d.Attrs["selection"] != "TRUE" {
		t.Fatalf("root snapshot wrong: %+v", d)
	}
	if len(d.Children) != 2 || d.Children[0].Name != "generate" || d.Children[1].Name != "recommend" {
		t.Fatalf("children wrong: %+v", d.Children)
	}
	if len(d.Children[0].Children) != 1 || d.Children[0].Children[0].Name != "phase" {
		t.Fatalf("grandchild wrong: %+v", d.Children[0].Children)
	}
	if d.DurationMS < 0 {
		t.Fatal("negative duration")
	}
	// The snapshot must serialize cleanly (the /debug/spans contract).
	if _, err := json.Marshal(d); err != nil {
		t.Fatal(err)
	}
	// Double End must not re-deliver.
	root.End()
	if len(sink.roots) != 1 {
		t.Fatal("double End re-delivered the root")
	}
}

// TestSpanConcurrentChildren attaches children from many goroutines —
// the engine's worker pool does exactly this. Run with -race.
func TestSpanConcurrentChildren(t *testing.T) {
	sink := &collectSink{}
	ctx := WithSink(context.Background(), sink)
	ctx, root := StartSpan(ctx, "parallel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := StartSpan(ctx, "worker")
			s.SetAttr("i", i)
			time.Sleep(time.Millisecond)
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(sink.roots[0].Children); got != 8 {
		t.Fatalf("want 8 children, got %d", got)
	}
}

func TestRingSink(t *testing.T) {
	r := NewRingSink(3)
	for i := 0; i < 5; i++ {
		r.Collect(&SpanData{Name: string(rune('a' + i))})
	}
	snap := r.Snapshot("", 0)
	if len(snap) != 3 {
		t.Fatalf("want 3 buffered, got %d", len(snap))
	}
	// Newest first: e, d, c.
	if snap[0].Name != "e" || snap[1].Name != "d" || snap[2].Name != "c" {
		t.Fatalf("order wrong: %v %v %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}

	// Partial fill.
	r2 := NewRingSink(8)
	r2.Collect(&SpanData{Name: "only"})
	if s := r2.Snapshot("", 0); len(s) != 1 || s[0].Name != "only" {
		t.Fatalf("partial ring wrong: %+v", s)
	}
	// Degenerate size.
	r3 := NewRingSink(0)
	r3.Collect(&SpanData{Name: "x"})
	r3.Collect(&SpanData{Name: "y"})
	if s := r3.Snapshot("", 0); len(s) != 1 || s[0].Name != "y" {
		t.Fatalf("size-clamped ring wrong: %+v", s)
	}
}

func TestRingSinkConcurrent(t *testing.T) {
	r := NewRingSink(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Collect(&SpanData{Name: "s"})
				_ = r.Snapshot("", 0)
			}
		}()
	}
	wg.Wait()
	if len(r.Snapshot("", 0)) != 16 {
		t.Fatalf("ring should be full")
	}
}
