package study

import (
	"fmt"
	"math"

	"subdex/internal/core"
	"subdex/internal/query"
)

// Runner executes one subject's exploration of a task and scores it.
type Runner struct {
	Ex       *core.Explorer
	Detector Detector
	// PathLen is the exploration length (Table 3: 7 for Scenario I, 10 for
	// Scenario II).
	PathLen int
	// BreadthTask marks tasks whose targets live in broad selections
	// (Scenario II insight extraction): subjects prefer rolling up when
	// the selection narrows instead of drilling ever deeper.
	BreadthTask bool
}

// Outcome reports one run.
type Outcome struct {
	Identified int
	// StepsToFirst is the 1-based step of the first identification (0 when
	// nothing was found) — the Figure 8 recall curve uses per-step counts.
	StepsToFirst int
	// PerStepIdentified[i] is the cumulative identification count after
	// step i+1.
	PerStepIdentified []int
}

// Run explores for PathLen steps in the given mode and returns the outcome.
// The subject walks a User-Driven session and picks every move itself: in
// a guided mode it asks the Recommendation Builder for the next-step
// operations before each move, so the last step gets no recommendation
// pass.
func (r *Runner) Run(subj *Subject, mode core.Mode) (*Outcome, error) {
	sess, err := core.NewSession(r.Ex, core.UserDriven, query.Description{})
	if err != nil {
		return nil, err
	}
	rb := core.RecommendationBuilder{Ex: r.Ex}
	found := make(map[int]bool)
	visited := map[string]bool{sess.Current().Key(): true}
	out := &Outcome{}
	sideAwareDet, _ := r.Detector.(SideAware)

	for step := 0; step < r.PathLen; step++ {
		cur := sess.Current()
		res, err := sess.Step()
		if err != nil {
			return nil, err
		}

		// Perception: each exposed target is noticed independently. An
		// inexact exposure (an all-ones sliver of the true group) must also
		// survive the subject's generalize-and-recheck diligence.
		justFound := false
		for _, e := range r.Detector.Exposed(r.Ex, cur, res.Maps) {
			if found[e.Target] {
				continue
			}
			p := subj.NoticeProb()
			for v := 0; v < e.Slack; v++ {
				p *= subj.VerifyProb()
			}
			if subj.Rng.Float64() < p {
				found[e.Target] = true
				justFound = true
				if out.StepsToFirst == 0 {
					out.StepsToFirst = step + 1
				}
			}
		}
		out.PerStepIdentified = append(out.PerStepIdentified, len(found))
		if step == r.PathLen-1 {
			break
		}

		var recs []core.Recommendation
		if mode != core.UserDriven {
			recs, _, err = rb.Recommend(cur, res.Maps, sess.Seen(), r.Ex.Cfg.O)
			if err != nil {
				return nil, err
			}
		}
		// The Scenario I task statement tells subjects to find one group
		// per side; once every unfound target shares a side, a rational
		// subject restricts the hunt to that side. Fully-Automated cannot.
		var needSide *query.Side
		if sideAwareDet != nil {
			needSide = remainingSide(sideAwareDet, r.Detector.NumTargets(), found)
		}
		next, err := r.chooseNext(subj, mode, cur, res, recs, justFound, visited, needSide)
		if err != nil {
			return nil, err
		}
		if err := sess.ApplyDescription(next); err != nil {
			return nil, err
		}
		visited[next.Key()] = true
	}
	out.Identified = len(found)
	return out, nil
}

// chooseNext applies the mode-specific policy. visited holds the
// descriptions already explored; self-directed subjects remember where they
// have been and avoid going back, and Recommendation-Powered subjects skip
// recommendations pointing at already-visited selections. Fully-Automated
// has no such memory — the system cannot know what the user considers done,
// which is exactly the inflexibility the paper reports.
func (r *Runner) chooseNext(subj *Subject, mode core.Mode, cur query.Description,
	res *core.StepResult, recs []core.Recommendation, justFound bool,
	visited map[string]bool, needSide *query.Side) (query.Description, error) {
	switch mode {
	case core.FullyAutomated:
		// No intervention: top-1 recommendation, or stay put.
		if len(recs) > 0 {
			return recs[0].Op.Target, nil
		}
		return cur, nil

	case core.RecommendationPowered:
		// After an identification, a rational subject starts over to
		// search elsewhere; the visited memory keeps the recommender from
		// dragging them back.
		if justFound {
			return query.Description{}, nil
		}
		// On breadth tasks, back out once the selection narrows: the
		// targets are facts about broad populations.
		if r.BreadthTask && cur.Len() >= 2 {
			if d, ok := r.rollUp(subj, cur); ok {
				return d, nil
			}
		}
		// Recommendation-Powered subjects can still act on their own
		// (§3.3): an obviously suspicious bar on display gets drilled with
		// the same instinct a User-Driven subject has — guidance adds to,
		// not replaces, the user's own judgement.
		if subj.Rng.Float64() < subj.SmartActionProb() {
			if d, ok := r.drillLowestBar(cur, res, needSide); ok && !visited[d.Key()] {
				return d, nil
			}
		}
		fresh := recs[:0:0]
		for _, rec := range recs {
			if visited[rec.Op.Target.Key()] {
				continue
			}
			if needSide != nil && rec.Op.Added != nil && rec.Op.Added.Side != *needSide {
				continue
			}
			fresh = append(fresh, rec)
		}
		if subj.Rng.Float64() < subj.FollowRecProb() && len(fresh) > 0 {
			// Prefer the recommendation pointing at the most suspicious
			// (lowest-average) displayed bar, else top-1.
			if d, ok := r.suspiciousRec(subj, fresh, res); ok {
				return d, nil
			}
			return fresh[0].Op.Target, nil
		}
		return r.selfDirected(subj, cur, res, visited, needSide)

	default: // UserDriven
		if justFound {
			return query.Description{}, nil
		}
		return r.selfDirected(subj, cur, res, visited, needSide)
	}
}

// suspiciousRec returns the recommendation whose added selector matches the
// lowest-average bar in the display, if the subject spots it.
func (r *Runner) suspiciousRec(subj *Subject, recs []core.Recommendation, res *core.StepResult) (query.Description, bool) {
	if subj.Rng.Float64() > subj.SmartActionProb()+0.3 {
		return query.Description{}, false
	}
	sel, ok := r.lowestBar(res, query.Description{}, nil)
	if !ok {
		return query.Description{}, false
	}
	for _, rec := range recs {
		if rec.Op.Added != nil && *rec.Op.Added == sel {
			return rec.Op.Target, true
		}
	}
	return query.Description{}, false
}

// lowestBar finds the minimum-average bar across the display — of at least
// three ratings, not the missing value's — among the maps on needSide (any
// side when nil) whose attribute cur leaves unbound.
func (r *Runner) lowestBar(res *core.StepResult, cur query.Description, needSide *query.Side) (query.Selector, bool) {
	bestAvg := 1e9
	var best query.Selector
	ok := false
	for _, rm := range res.Maps {
		if cur.BindsAttr(rm.Side, rm.Attr) || needSide != nil && rm.Side != *needSide {
			continue
		}
		dict := r.Ex.DictFor(rm)
		for i := range rm.Subgroups {
			sg := &rm.Subgroups[i]
			if sg.N < 3 {
				continue
			}
			if avg := sg.AvgScore(); avg < bestAvg {
				bestAvg = avg
				best = query.Selector{Side: rm.Side, Attr: rm.Attr, Value: dict.Value(sg.Value)}
				ok = true
			}
		}
	}
	return best, ok
}

// selfDirected models a user inventing their own operation: with the
// subject's smart-action probability, drill into the lowest-average bar on
// display; otherwise wander (random bar filter, or a roll-up). Moves into
// already-visited selections are avoided when an alternative exists.
func (r *Runner) selfDirected(subj *Subject, cur query.Description, res *core.StepResult,
	visited map[string]bool, needSide *query.Side) (query.Description, error) {
	if subj.Rng.Float64() < subj.SmartActionProb() {
		if d, ok := r.drillLowestBar(cur, res, needSide); ok && !visited[d.Key()] {
			return d, nil
		}
	}
	rollProb := 0.25
	if r.BreadthTask && cur.Len() >= 2 {
		rollProb = 0.7
	}
	// Wander: roll up with rollProb if possible; half the time type a random filter
	// (unguided users often work from the selection form, not the display);
	// else filter a random bar of a random displayed map.
	if cur.Len() > 0 && subj.Rng.Float64() < rollProb {
		if d, ok := r.rollUp(subj, cur); ok {
			return d, nil
		}
	}
	if subj.Rng.Float64() < 0.5 {
		if d, ok := r.randomFilter(subj, cur, needSide); ok {
			return d, nil
		}
	}
	if len(res.Maps) > 0 {
		rm := res.Maps[subj.Rng.Intn(len(res.Maps))]
		if (needSide == nil || rm.Side == *needSide) && len(rm.Subgroups) > 0 {
			sg := rm.Subgroups[subj.Rng.Intn(len(rm.Subgroups))]
			label := r.Ex.DictFor(rm).Value(sg.Value)
			if !cur.BindsAttr(rm.Side, rm.Attr) {
				if d, err := cur.With(query.Selector{Side: rm.Side, Attr: rm.Attr, Value: label}); err == nil {
					return d, nil
				}
			}
		}
	}
	// Nothing on display helps (e.g. every shown map is on the wrong
	// side): type an own filter on a random unbound attribute, like a real
	// user falling back to the selection form.
	if d, ok := r.randomFilter(subj, cur, needSide); ok {
		return d, nil
	}
	return cur, nil
}

// randomFilter adds a random attribute-value selector, restricted to
// needSide when set.
func (r *Runner) randomFilter(subj *Subject, cur query.Description, needSide *query.Side) (query.Description, bool) {
	sides := []query.Side{query.ReviewerSide, query.ItemSide}
	if needSide != nil {
		sides = []query.Side{*needSide}
	}
	side := sides[subj.Rng.Intn(len(sides))]
	t := r.Ex.DB.Reviewers
	if side == query.ItemSide {
		t = r.Ex.DB.Items
	}
	for attempt := 0; attempt < 8; attempt++ {
		a := subj.Rng.Intn(t.Schema.Len())
		attr := t.Schema.At(a).Name
		if cur.BindsAttr(side, attr) {
			continue
		}
		values := t.Dict(a).Values()
		if len(values) == 0 {
			continue
		}
		v := values[subj.Rng.Intn(len(values))]
		if d, err := cur.With(query.Selector{Side: side, Attr: attr, Value: v}); err == nil {
			return d, true
		}
	}
	return query.Description{}, false
}

// drillLowestBar filters into the minimum-average bar across the display,
// restricted to needSide when set.
func (r *Runner) drillLowestBar(cur query.Description, res *core.StepResult, needSide *query.Side) (query.Description, bool) {
	sel, ok := r.lowestBar(res, cur, needSide)
	if !ok {
		return query.Description{}, false
	}
	d, err := cur.With(sel)
	if err != nil {
		return query.Description{}, false
	}
	return d, true
}

// rollUp removes a random selector.
func (r *Runner) rollUp(subj *Subject, cur query.Description) (query.Description, bool) {
	sels := cur.Selectors()
	if len(sels) == 0 {
		return query.Description{}, false
	}
	d, err := cur.Without(sels[subj.Rng.Intn(len(sels))])
	if err != nil {
		return query.Description{}, false
	}
	return d, true
}

// SideAware detectors reveal which table side each target lives on; the
// Scenario I task statement ("find one reviewer group and one item group")
// makes this knowledge available to subjects.
type SideAware interface {
	TargetSide(i int) query.Side
}

// remainingSide returns the single side shared by all unfound targets, or
// nil when none remain or they span both sides.
func remainingSide(det SideAware, numTargets int, found map[int]bool) *query.Side {
	var side *query.Side
	for i := 0; i < numTargets; i++ {
		if found[i] {
			continue
		}
		s := det.TargetSide(i)
		if side == nil {
			side = &s
		} else if *side != s {
			return nil
		}
	}
	return side
}

// Cell aggregates a treatment group's results for one mode.
type Cell struct {
	Mode    core.Mode
	CS      CSLevel
	Domain  DomainLevel
	Results []float64
}

// Mean returns the cell's average identification count.
func (c *Cell) Mean() float64 {
	if len(c.Results) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range c.Results {
		sum += x
	}
	return sum / float64(len(c.Results))
}

// StdDev returns the cell's population standard deviation — the dispersion
// statistic the paper reports under Figure 7.
func (c *Cell) StdDev() float64 {
	if len(c.Results) < 2 {
		return 0
	}
	m := c.Mean()
	s := 0.0
	for _, x := range c.Results {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(c.Results)))
}

func (c *Cell) String() string {
	return fmt.Sprintf("%s/%s/%s: %.2f (n=%d)", c.Mode, c.CS, c.Domain, c.Mean(), len(c.Results))
}

// RunCell executes n subjects of one treatment in one mode.
func (r *Runner) RunCell(mode core.Mode, cs CSLevel, domain DomainLevel, n int, seed int64) (*Cell, error) {
	cell := &Cell{Mode: mode, CS: cs, Domain: domain}
	for i := 0; i < n; i++ {
		subj := NewSubject(i, cs, domain, seed)
		out, err := r.Run(subj, mode)
		if err != nil {
			return nil, err
		}
		cell.Results = append(cell.Results, float64(out.Identified))
	}
	return cell, nil
}
