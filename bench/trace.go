package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"subdex/internal/core"
	"subdex/internal/diversity"
	"subdex/internal/engine"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// span is one call into a layer, recorded by the benchmark around the
// call. Walk and Step identify the operation that caused it (Step numbers
// the walk's operations from 0, the create); Parent is the enclosing span,
// 0 for the operation's root.
type span struct {
	Walk    int    `json:"walk"`
	Step    int    `json:"step"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0         time.Time
	spans      []span
	stack      []int
	walk, step int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under the innermost open one and returns the function
// that closes it.
func (t *tracer) start(name string) func() {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Walk: t.walk, Step: t.step, Span: id, Parent: parent, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id-1].StartNS = int64(time.Since(t.t0))
	return func() {
		t.spans[id-1].EndNS = int64(time.Since(t.t0))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// writeTrace writes spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums, per span name, how often it ran, its total time, and
// its self time: the span minus the part its children cover.
type layerTotal struct {
	name        string
	count       int
	total, self time.Duration
}

func layerTotals(spans []span) map[string]*layerTotal {
	children := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := map[string]*layerTotal{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{name: s.Name}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += s.dur() - children[s.Span]
	}
	return out
}

// stepRoot is the name of a composed step's root span; its self time is
// the step's unaccounted remainder.
const stepRoot = "core.step"

// traceSummary prints the per-layer self-time table of a trace file.
func traceSummary(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	totals := layerTotals(spans)
	root := totals[stepRoot]
	if root == nil || root.total == 0 {
		return fmt.Errorf("%s: no %s spans", path, stepRoot)
	}
	var rows []*layerTotal
	for _, lt := range totals {
		rows = append(rows, lt)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer\tcount\ttotal ms\tself ms\tshare of step\t\n")
	for _, lt := range rows {
		name := lt.name
		if name == stepRoot {
			name += " (self = unaccounted)"
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.1f%%\t\n", name, lt.count, ms(lt.total), ms(lt.self),
			100*float64(lt.self)/float64(root.total))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d steps, %.3f ms in steps, %.1f%% of it in no layer's span\n",
		root.count, ms(root.total), 100*float64(root.self)/float64(root.total))
	return nil
}

// stepFacts is what one composed step leaves behind for the layer metrics
// and the probes.
type stepFacts struct {
	opIndex  int
	desc     query.Description
	cands    []ratingmap.Key
	shown    []*ratingmap.RatingMap
	records  int
	profile  *engine.Profile
	recDurs  []time.Duration
	rootSpan int
}

// composer replays a recorded operation sequence on an explorer, composing
// every step itself from the layers' public functions in the order
// Explorer.RMSetCtx and Session.StepCtx call them, with one span per call.
// It keeps what a core.Session keeps: the current selection, the Back
// history, the seen set and the latest recommendations.
type composer struct {
	ex   *core.Explorer
	mode core.Mode
	tr   *tracer

	cur     query.Description
	history []query.Description
	seen    *ratingmap.SeenSet
	recs    []core.Recommendation
	steps   []stepFacts
}

// replay runs ops and reports the indices of steps whose composed display
// differs from the recorded digest.
func (c *composer) replay(ctx context.Context, ops []op) (mismatches []int, err error) {
	walk, inWalk := -1, 0
	for i, o := range ops {
		if o.Walk != walk {
			walk, inWalk = o.Walk, 0
		}
		c.tr.walk, c.tr.step = walk, inWalk
		inWalk++
		switch o.Kind {
		case "create":
			end := c.tr.start("core.create")
			d, err := c.parse(o.Arg)
			end()
			if err != nil {
				return nil, err
			}
			c.cur, c.history, c.recs, c.seen = d, nil, nil, ratingmap.NewSeenSet()
		case "apply":
			end := c.tr.start("core.apply")
			d, err := c.parse(o.Arg)
			if err == nil {
				err = c.ex.Query.Validate(d)
			}
			end()
			if err != nil {
				return nil, err
			}
			c.move(d)
		case "rec":
			var idx int
			if _, err := fmt.Sscanf(o.Arg, "%d", &idx); err != nil || idx >= len(c.recs) {
				return nil, fmt.Errorf("op %d: recommendation %q of %d", i, o.Arg, len(c.recs))
			}
			c.move(c.recs[idx].Op.Target)
		case "back":
			if o.Arg == "true" && len(c.history) > 0 {
				c.cur = c.history[len(c.history)-1]
				c.history = c.history[:len(c.history)-1]
			}
		case "step":
			digest, err := c.step(ctx, i)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			if digest != o.Digest {
				mismatches = append(mismatches, i)
			}
		}
	}
	return mismatches, nil
}

func (c *composer) parse(predicate string) (query.Description, error) {
	if predicate == "" {
		predicate = "TRUE"
	}
	defer c.tr.start("query.parse")()
	return c.ex.ParseDescription(predicate)
}

func (c *composer) move(d query.Description) {
	if !c.cur.Equal(d) {
		c.history = append(c.history, c.cur)
	}
	c.cur = d
}

func (c *composer) step(ctx context.Context, opIndex int) (string, error) {
	ex, cfg := c.ex, c.ex.Cfg
	endRoot := c.tr.start(stepRoot)
	rootSpan := len(c.tr.spans)
	if err := ex.Query.Validate(c.cur); err != nil {
		endRoot()
		return "", err
	}
	end := c.tr.start("query.materialize")
	group, err := ex.Query.Materialize(c.cur)
	end()
	if err != nil {
		endRoot()
		return "", err
	}
	end = c.tr.start("engine.candidates")
	cands := ex.Gen.Candidates(ex.Query, group.Desc)
	end()
	end = c.tr.start("engine.topmaps")
	res, err := ex.Gen.TopMapsCtx(ctx, group, cands, c.seen, cfg.K*cfg.L, cfg.Engine)
	end()
	if err != nil {
		endRoot()
		return "", err
	}
	end = c.tr.start("diversity.select")
	shown := diversity.SelectDiverse(res.Maps, cfg.K, cfg.Distance)
	end()
	end = c.tr.start("diversity.measure")
	diversity.SetDiversity(shown, diversity.EMD)
	diversity.AvgPairwiseDiversity(shown, diversity.EMD)
	end()
	for _, rm := range shown {
		c.seen.Add(rm)
	}
	facts := stepFacts{opIndex: opIndex, desc: group.Desc, cands: cands, shown: shown,
		records: group.Len(), profile: res.Profile, rootSpan: rootSpan}
	if c.mode != core.UserDriven {
		end = c.tr.start("core.recommend")
		rb := core.RecommendationBuilder{Ex: ex}
		recs, durs, err := rb.Recommend(c.cur, shown, c.seen, cfg.O)
		end()
		if err != nil {
			endRoot()
			return "", err
		}
		c.recs, facts.recDurs = recs, durs
	}
	endRoot()
	if res.Degraded {
		return "", fmt.Errorf("composed step on %q degraded", c.cur)
	}
	c.steps = append(c.steps, facts)
	return ratingmap.DigestMaps(shown), nil
}
