package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWideEventMarshalOrder(t *testing.T) {
	ev := NewWideEvent().
		Set("op", "step").
		Set("user", 3).
		Set("duration_ms", 1.5).
		Set("degraded", false)
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"op":"step","user":3,"duration_ms":1.5,"degraded":false}`
	if string(b) != want {
		t.Fatalf("marshal order: got %s, want %s", b, want)
	}
}

func TestWideEventDuplicateKeyLastWins(t *testing.T) {
	ev := NewWideEvent().Set("op", "a").Set("user", 1).Set("op", "b")
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"user":1,"op":"b"}`
	if string(b) != want {
		t.Fatalf("duplicate key: got %s, want %s", b, want)
	}
	if v, ok := ev.Get("op"); !ok || v != "b" {
		t.Fatalf("Get(op) = %v, %v; want b, true", v, ok)
	}
}

func TestWideEventNilSafe(t *testing.T) {
	var ev *WideEvent
	if ev.Set("op", "x") != nil {
		t.Fatal("nil Set should return nil")
	}
	if _, ok := ev.Get("op"); ok {
		t.Fatal("nil Get should miss")
	}
	b, err := json.Marshal(ev)
	if err != nil || string(b) != "null" {
		t.Fatalf("nil marshal: %s, %v", b, err)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(NewWideEvent().Set("op", "x"))
	if f.DumpsEnabled() {
		t.Fatal("nil recorder should be inert")
	}
	if got := f.Snapshot("", 0); got != nil {
		t.Fatalf("nil Snapshot = %v", got)
	}
	if path, err := f.Trigger("boom"); path != "" || err != nil {
		t.Fatalf("nil Trigger: path=%q err=%v", path, err)
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{})
	for i := 0; i < flightRingSize+4; i++ {
		f.Record(NewWideEvent().Set("step", i))
	}
	got := f.Snapshot("", 0)
	if len(got) != flightRingSize {
		t.Fatalf("Snapshot kept %d events, want %d", len(got), flightRingSize)
	}
	// Newest first.
	for i, want := range []int{flightRingSize + 3, flightRingSize + 2, flightRingSize + 1} {
		if v, _ := got[i].Get("step"); v != want {
			t.Fatalf("snapshot[%d] step = %v, want %d", i, v, want)
		}
	}
	if got := f.Snapshot("", 2); len(got) != 2 {
		t.Fatalf("limit=2 kept %d", len(got))
	}
}

func TestFlightRecorderSnapshotTraceFilter(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{})
	want := string(DeriveTraceID(7))
	f.Record(NewWideEvent().Set("trace_id", string(DeriveTraceID(1))).Set("step", 1))
	f.Record(NewWideEvent().Set("trace_id", want).Set("step", 2))
	f.Record(NewWideEvent().Set("step", 3)) // no trace at all
	got := f.Snapshot(want, 0)
	if len(got) != 1 {
		t.Fatalf("trace filter kept %d events, want 1", len(got))
	}
	if v, _ := got[0].Get("step"); v != 2 {
		t.Fatalf("wrong event survived the filter: step = %v", v)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{Dir: t.TempDir(), MinInterval: time.Nanosecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(NewWideEvent().Set("user", g).Set("step", i))
				if i%50 == 0 {
					f.Snapshot("", 10)
					if _, err := f.Trigger(fmt.Sprintf("reason_%d", g)); err != nil {
						t.Errorf("Trigger: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(f.Snapshot("", 0)); got != flightRingSize {
		t.Fatalf("ring should be full: %d events", got)
	}
}

func TestFlightRecorderTriggerRateLimit(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	dir := t.TempDir()
	f := NewFlightRecorder(FlightOptions{Dir: dir, MinInterval: 30 * time.Second, Clock: clock})
	f.Record(NewWideEvent().Set("op", "step").Set("trace_id", string(DeriveTraceID(1))))

	// A storm of identical triggers: exactly one dump.
	var dumpedPaths []string
	for i := 0; i < 50; i++ {
		path, err := f.Trigger("slo_breach")
		if err != nil {
			t.Fatal(err)
		}
		if path != "" {
			dumpedPaths = append(dumpedPaths, path)
		}
	}
	if len(dumpedPaths) != 1 {
		t.Fatalf("storm produced %d dumps, want exactly 1", len(dumpedPaths))
	}

	// A different reason dumps independently.
	if path, err := f.Trigger("http_5xx"); err != nil || path == "" {
		t.Fatalf("different reason should dump: path=%q err=%v", path, err)
	}

	// After the window passes, the original reason dumps again.
	now = now.Add(31 * time.Second)
	if path, err := f.Trigger("slo_breach"); err != nil || path == "" {
		t.Fatalf("post-window trigger should dump: path=%q err=%v", path, err)
	}

	// Each dump wrote a JSONL file and a profile snapshot.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, profiles int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".jsonl"):
			jsonl++
		case strings.HasSuffix(e.Name(), ".profiles.txt"):
			profiles++
		}
	}
	if jsonl != 3 || profiles != 3 {
		t.Fatalf("dump dir has %d jsonl + %d profile files, want 3 + 3", jsonl, profiles)
	}
}

func TestFlightRecorderDumpContents(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightOptions{Dir: dir})
	tid := string(DeriveTraceID(9))
	f.Record(NewWideEvent().Set("op", "step").Set("step", 1).Set("trace_id", tid))
	f.Record(NewWideEvent().Set("op", "step").Set("step", 2).Set("trace_id", tid))

	path, err := f.Trigger("degraded_step")
	if err != nil || path == "" {
		t.Fatalf("Trigger: path=%q err=%v", path, err)
	}
	if base := filepath.Base(path); !strings.HasPrefix(base, "server-") || !strings.Contains(base, "degraded_step") {
		t.Fatalf("dump filename %q should carry name and reason", base)
	}

	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want header + 2 events", len(lines))
	}
	if lines[0]["reason"] != "degraded_step" || lines[0]["events"] != float64(2) {
		t.Fatalf("bad header: %v", lines[0])
	}
	// Events are chronological in the dump.
	if lines[1]["step"] != float64(1) || lines[2]["step"] != float64(2) {
		t.Fatalf("events out of order: %v then %v", lines[1], lines[2])
	}
	for _, ev := range lines[1:] {
		if ev["trace_id"] != tid {
			t.Fatalf("event lost its trace ID: %v", ev)
		}
		if _, ok := ev["ts"]; !ok {
			t.Fatalf("event missing auto-stamped ts: %v", ev)
		}
	}

	// The profile companion mentions both profile kinds.
	prof, err := os.ReadFile(strings.TrimSuffix(path, ".jsonl") + ".profiles.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prof), "goroutine profile") || !strings.Contains(string(prof), "heap profile") {
		t.Fatalf("profile snapshot incomplete:\n%s", prof)
	}
}

func TestFlightRecorderDumpsDisabled(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{})
	f.Record(NewWideEvent().Set("op", "step"))
	path, err := f.Trigger("slo_breach")
	if err != nil || path != "" {
		t.Fatalf("disabled dumps: (%q, %v)", path, err)
	}
	if len(f.Snapshot("", 0)) != 1 {
		t.Fatal("ring should still record with dumps disabled")
	}
}
