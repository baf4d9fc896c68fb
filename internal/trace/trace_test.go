package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/gen"
	"subdex/internal/query"
)

func traceSession(t *testing.T) (*core.Explorer, *core.Session) {
	t.Helper()
	db, err := gen.Yelp(gen.Config{Seed: 6, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.RecSampleSize = 300
	cfg.Limits.MaxCandidates = 15
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(ex, core.RecommendationPowered, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recommendations) == 0 {
			break
		}
		if err := sess.ApplyRecommendation(0); err != nil {
			t.Fatal(err)
		}
	}
	return ex, sess
}

func TestFromSession(t *testing.T) {
	_, sess := traceSession(t)
	tr := FromSession(sess)
	if tr.Database != "Yelp" || tr.Mode != "Recommendation-Powered" {
		t.Fatalf("trace metadata: %q/%q", tr.Database, tr.Mode)
	}
	if len(tr.Events) != sess.NumSteps() {
		t.Fatalf("events = %d, steps = %d", len(tr.Events), sess.NumSteps())
	}
	for i, ev := range tr.Events {
		if ev.Step != i+1 {
			t.Errorf("event %d has step %d", i, ev.Step)
		}
		if len(ev.Maps) == 0 || len(ev.Maps) != len(ev.Utilities) {
			t.Errorf("event %d display incomplete: %v", i, ev)
		}
		if i < len(tr.Events)-1 && ev.ChosenOp == "" {
			t.Errorf("event %d missing chosen op", i)
		}
	}
	if last := tr.Events[len(tr.Events)-1]; last.ChosenOp != "" {
		t.Error("final event must have no chosen op")
	}
}

// TestFromSessionTelemetry checks that persisted session logs carry the
// per-step telemetry (durations, candidate and pruning counters) and
// that it survives the JSONL round trip.
func TestFromSessionTelemetry(t *testing.T) {
	_, sess := traceSession(t)
	tr := FromSession(sess)
	for i, ev := range tr.Events {
		if ev.DurationMS <= 0 {
			t.Errorf("event %d: DurationMS = %v, want > 0", i, ev.DurationMS)
		}
		if ev.RecommendationMS <= 0 {
			t.Errorf("event %d: RecommendationMS = %v, want > 0 (rp mode)", i, ev.RecommendationMS)
		}
		if ev.Considered <= 0 {
			t.Errorf("event %d: Considered = %d, want > 0", i, ev.Considered)
		}
		if ev.PrunedCI < 0 || ev.PrunedMAB < 0 {
			t.Errorf("event %d: negative prune counts", i)
		}
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		a, b := tr.Events[i], back.Events[i]
		if a.DurationMS != b.DurationMS || a.RecommendationMS != b.RecommendationMS ||
			a.Considered != b.Considered || a.PrunedCI != b.PrunedCI || a.PrunedMAB != b.PrunedMAB {
			t.Fatalf("event %d telemetry changed in round trip: %+v vs %+v", i, a, b)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, sess := traceSession(t)
	tr := FromSession(sess)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(tr.Events)+1 {
		t.Fatalf("JSONL lines = %d, want header + %d events", lines, len(tr.Events))
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Database != tr.Database || len(back.Events) != len(tr.Events) {
		t.Fatal("round trip lost data")
	}
	for i := range tr.Events {
		if back.Events[i].Selection != tr.Events[i].Selection {
			t.Fatalf("event %d selection changed", i)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	_, sess := traceSession(t)
	tr := FromSession(sess)
	path := filepath.Join(t.TempDir(), "session.jsonl")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatal("file round trip lost events")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "not json\n",
		"bad version": `{"version":9}` + "\n",
		"bad event":   `{"version":1}` + "\nnot json\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestEventDegradedRoundTrip checks that deadline-degraded steps persist
// their anytime markers through FromSession and the JSONL round trip.
func TestEventDegradedRoundTrip(t *testing.T) {
	db, err := gen.Yelp(gen.Config{Seed: 6, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.StepTimeout = 50 * time.Millisecond
	cfg.Engine.MinPhaseRecords = 1
	cfg.Engine.PhaseHook = func(ctx context.Context, phase int) {
		if phase > 0 {
			<-ctx.Done()
		}
	}
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(ex, core.UserDriven, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	tr := FromSession(sess)
	if len(tr.Events) != 1 || !tr.Events[0].Degraded || tr.Events[0].RecordsProcessed <= 0 {
		t.Fatalf("degradation not persisted: %+v", tr.Events)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Events[0].Degraded || back.Events[0].RecordsProcessed != tr.Events[0].RecordsProcessed {
		t.Fatalf("degradation lost in round trip: %+v", back.Events[0])
	}
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if h.Version != 1 {
		return nil, fmt.Errorf("trace: unsupported version %d", h.Version)
	}
	tr := &Trace{Database: h.Database, Mode: h.Mode}
	for line := 2; sc.Scan(); line++ {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, sc.Err()
}
