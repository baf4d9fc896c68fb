package study

import (
	"subdex/internal/core"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Exposure reports that one ground-truth target is identifiable from a
// display. Exact exposures pin the target precisely; inexact ones pin a
// proper subregion (an all-ones sliver of an irregular group) from which a
// diligent subject reaches the exact target by generalize-and-recheck.
type Exposure struct {
	Target int
	Exact  bool
	// Slack counts the selector removals a subject must verify to reduce
	// an inexact sighting to the exact planted description (0 for exact
	// exposures). Each removal is one generalize-and-recheck round; deep
	// slivers are correspondingly less likely to be converted.
	Slack int
}

// Detector decides which ground-truth targets a step's display exposes.
// Exposure is a property of the information shown; whether the subject
// *notices* an exposed target is the subject's noise model.
type Detector interface {
	// NumTargets is the ground-truth count (2 irregular groups, 5 insights).
	NumTargets() int
	// Exposed returns the targets identifiable from this display.
	Exposed(ex *core.Explorer, desc query.Description, maps []*ratingmap.RatingMap) []Exposure
}

// IrregularDetector implements the Scenario I task: an irregular group is
// identifiable from a display when the current selection — possibly
// combined with one all-ones bar (average score ≈ 1) of a displayed map on
// the group's rating dimension — pinpoints exactly the planted entity set.
// Identification is extensional: a subject who reaches the planted
// reviewers through logically equivalent selectors (e.g. era=modern instead
// of decade=1990s when the two coincide) has found the group.
type IrregularDetector struct {
	Groups []gen.IrregularGroup
	// MinBarRecords is the minimum bar size to count as evidence
	// (default 3).
	MinBarRecords int
	// Epsilon is the tolerance above 1.0 for the bar average (default 0.1).
	Epsilon float64

	planted []*query.Bitset // lazily built per group
}

// NumTargets returns the number of planted groups.
func (d *IrregularDetector) NumTargets() int { return len(d.Groups) }

// TargetSide reports the table side of one planted group (SideAware).
func (d *IrregularDetector) TargetSide(i int) query.Side { return d.Groups[i].Side }

func (d *IrregularDetector) minBar() int {
	if d.MinBarRecords > 0 {
		return d.MinBarRecords
	}
	return 3
}

func (d *IrregularDetector) eps() float64 {
	if d.Epsilon > 0 {
		return d.Epsilon
	}
	return 0.1
}

// Exposed checks each planted group against the display.
func (d *IrregularDetector) Exposed(ex *core.Explorer, desc query.Description, maps []*ratingmap.RatingMap) []Exposure {
	var out []Exposure
	for gi := range d.Groups {
		if exposed, exact := d.groupExposed(ex, gi, desc, maps); exposed {
			slack := 0
			if !exact {
				slack = desc.Len() + 1 - len(d.Groups[gi].Selectors)
				if slack < 1 {
					slack = 1
				}
			}
			out = append(out, Exposure{Target: gi, Exact: exact, Slack: slack})
		}
	}
	return out
}

// plantedRows returns (cached) the entity bitset of planted group gi.
func (d *IrregularDetector) plantedRows(ex *core.Explorer, gi int) (*query.Bitset, error) {
	if d.planted == nil {
		d.planted = make([]*query.Bitset, len(d.Groups))
	}
	if d.planted[gi] == nil {
		b, err := ex.Query.EntityGroup(d.Groups[gi].Description(), d.Groups[gi].Side)
		if err != nil {
			return nil, err
		}
		d.planted[gi] = b
	}
	return d.planted[gi], nil
}

// groupExposed reports whether group gi is identifiable and whether the
// identification is exact. The selection's entities on the group's side —
// alone, or refined by one all-ones bar of a displayed map on the group's
// dimension and side — must form a nonempty subset of the planted set;
// equality makes the exposure exact.
func (d *IrregularDetector) groupExposed(ex *core.Explorer, gi int,
	desc query.Description, maps []*ratingmap.RatingMap) (exposed, exact bool) {
	g := d.Groups[gi]
	planted, err := d.plantedRows(ex, gi)
	if err != nil {
		return false, false
	}
	base, err := ex.Query.EntityGroup(desc, g.Side)
	if err != nil {
		return false, false
	}

	record := func(bits *query.Bitset) {
		n := bits.Count()
		if n < 1 {
			return
		}
		sub := bits.Clone()
		sub.IntersectWith(planted)
		if sub.Count() != n {
			return // not a subset of the planted entities
		}
		exposed = true
		if bits.Equal(planted) {
			exact = true
		}
	}

	// Fully pinned selection with the all-ones signature on screen.
	for _, rm := range maps {
		if rm.Dim != g.Dim || rm.TotalRecords < d.minBar() {
			continue
		}
		if rm.Distribution().Mean() <= 1+d.eps() {
			record(base)
			break
		}
	}

	// One bar away: an all-ones bar refining the selection.
	for _, rm := range maps {
		if exact {
			break
		}
		if rm.Dim != g.Dim || rm.Side != g.Side {
			continue
		}
		if desc.BindsAttr(rm.Side, rm.Attr) {
			continue
		}
		dict := ex.DictFor(rm)
		for i := range rm.Subgroups {
			sg := &rm.Subgroups[i]
			if sg.N < d.minBar() || sg.AvgScore() > 1+d.eps() {
				continue
			}
			refined, err := desc.With(query.Selector{Side: rm.Side, Attr: rm.Attr, Value: dict.Value(sg.Value)})
			if err != nil {
				continue
			}
			bits, err := ex.Query.EntityGroup(refined, g.Side)
			if err != nil {
				continue
			}
			record(bits)
			if exact {
				break
			}
		}
	}
	return exposed, exact
}

// InsightDetector implements the Scenario II task: an insight "value V has
// the extreme average on dimension D among the values of attribute A" is
// identifiable when a displayed map groups by A on D at a broad enough
// selection (at least 3 bars for context), and V's bar is the extreme one
// in the right direction.
type InsightDetector struct {
	Insights []gen.Insight
	// MinBarRecords is the minimum bar size (default 5).
	MinBarRecords int
}

// NumTargets returns the number of planted insights.
func (d *InsightDetector) NumTargets() int { return len(d.Insights) }

func (d *InsightDetector) minBar() int {
	if d.MinBarRecords > 0 {
		return d.MinBarRecords
	}
	return 5
}

// Exposed checks each planted insight against the display; insight
// exposures are always exact (the map bar is the insight).
func (d *InsightDetector) Exposed(ex *core.Explorer, desc query.Description, maps []*ratingmap.RatingMap) []Exposure {
	var out []Exposure
	for ii, in := range d.Insights {
		if d.insightExposed(ex, in, maps) {
			out = append(out, Exposure{Target: ii, Exact: true})
		}
	}
	return out
}

func (d *InsightDetector) insightExposed(ex *core.Explorer, in gen.Insight, maps []*ratingmap.RatingMap) bool {
	for _, rm := range maps {
		if rm.Dim != in.Dim || rm.Side != in.Side || rm.Attr != in.Attr {
			continue
		}
		dict := ex.DictFor(rm)
		var (
			targetAvg  float64
			haveTarget bool
			bars       int
			extreme    bool
		)
		// First pass: find the target bar.
		for i := range rm.Subgroups {
			sg := &rm.Subgroups[i]
			if sg.N < d.minBar() {
				continue
			}
			bars++
			if dict.Value(sg.Value) == in.Value {
				targetAvg = sg.AvgScore()
				haveTarget = true
			}
		}
		if !haveTarget || bars < 3 {
			continue
		}
		extreme = true
		for i := range rm.Subgroups {
			sg := &rm.Subgroups[i]
			if sg.N < d.minBar() || dict.Value(sg.Value) == in.Value {
				continue
			}
			avg := sg.AvgScore()
			if in.Lowest && avg <= targetAvg {
				extreme = false
				break
			}
			if !in.Lowest && avg >= targetAvg {
				extreme = false
				break
			}
		}
		if extreme {
			return true
		}
	}
	return false
}
