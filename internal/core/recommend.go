package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"subdex/internal/dataset"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Recommendation is one ranked next-step operation with its Equation 2
// utility.
type Recommendation struct {
	Op      query.Operation
	Utility float64
}

// RecommendationBuilder implements §4.3: for each displayed rating map it
// derives candidate operations (small adjustments to the current selection,
// differing in at most two attribute-value pairs, biased toward the map's
// own subgroups), evaluates each candidate's utility, and the SDE Engine
// merges the per-map top-o lists into the overall top-o.
type RecommendationBuilder struct {
	Ex *Explorer
}

// Recommend returns the overall top-o recommendations for the current
// description given the displayed maps. Candidates are evaluated one after
// another on the caller's goroutine; the paper's parallel Recommendation
// Builder is reproduced as a cost model over the returned durations — the
// cost of every evaluated candidate, in CandidateOps order — not as code
// (DESIGN.md "Limitations": at two cores a worker pool bought 0.81–1.14×).
//
// With o > 0, a candidate that provably cannot reach the top-o is dropped
// as soon as its rating maps are ranked, before they are materialized and
// diversified (recPass.keep). What is returned is what evaluating every
// candidate in full returns — same operations, same order, same utilities
// bit for bit — and every candidate still has its duration.
//
// Recommend is the context-free form of RecommendCtx.
func (rb *RecommendationBuilder) Recommend(cur query.Description, maps []*ratingmap.RatingMap,
	seen *ratingmap.SeenSet, o int) ([]Recommendation, []time.Duration, error) {
	return rb.RecommendCtx(context.Background(), cur, maps, seen, o) //subdex:ctxflow context-free API kept for bench/trace.go: the caller has no deadline to sever
}

// RecommendCtx is Recommend under a deadline: once ctx is done no further
// candidate is evaluated (ctx does not reach inside a candidate's
// evaluation, so the overrun is the one in hand) and ctx's error is
// returned instead of a list, because a top-o over a prefix of the
// candidates is not Equation 2's top-o.
//
// No candidate's group is materialized from the entity tables: each is
// derived from the displayed group by a recPass that lives for this call.
// Under a context carrying an obs sink the call is one "core.recommend"
// span whose attributes say where the groups came from.
func (rb *RecommendationBuilder) RecommendCtx(ctx context.Context, cur query.Description, maps []*ratingmap.RatingMap,
	seen *ratingmap.SeenSet, o int) ([]Recommendation, []time.Duration, error) {
	_, span := obs.StartSpan(ctx, "core.recommend")
	defer span.End()
	ops, err := rb.CandidateOps(cur, maps)
	if err != nil {
		return nil, nil, err
	}
	if len(ops) == 0 {
		return nil, nil, nil
	}
	// A group-cache hit: the step has just materialized cur.
	group, err := rb.Ex.Query.Materialize(cur)
	if err != nil {
		return nil, nil, err
	}
	pass := newRecPass(rb.Ex, group, o, ops)
	defer pass.describe(span)

	durations := make([]time.Duration, 0, len(ops))
	top := len(ops)
	if o > 0 {
		top = min(o, len(ops))
	}
	recs := make([]Recommendation, 0, top)
	for _, op := range ops {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		u, bounded, err := rb.operationUtility(pass, op, seen)
		if err != nil {
			return nil, nil, err
		}
		if !bounded {
			recs = keepTop(recs, Recommendation{Op: op, Utility: u}, o)
		}
		durations = append(durations, time.Since(start))
	}
	span.SetAttr("evaluated", len(durations))
	span.SetAttr("recommended", len(recs))
	return recs, durations, nil
}

// keepTop inserts r into recs, the top o so far — all of them when o ≤ 0 —
// by descending utility, ties in arrival order, and drops what falls past
// the o-th place: the stable sort of every candidate, truncated to o, kept
// as the candidates arrive. recs never outgrows a capacity of o.
func keepTop(recs []Recommendation, r Recommendation, o int) []Recommendation {
	at := sort.Search(len(recs), func(i int) bool { return recs[i].Utility < r.Utility })
	if o > 0 && len(recs) == o {
		if at == o {
			return recs
		}
		recs = recs[:o-1]
	}
	return slices.Insert(recs, at, r)
}

// operationUtility evaluates Equation 2 for a candidate operation: the sum
// of DW utilities of the k rating maps its target group would display. The
// group is derived by the pass instead of materialized (the tests hold it
// to a materializing reference), and the utility sits behind the pass's gate:
// a candidate comes back either with its exact utility, which the gate then
// knows of, or bounded, with none.
func (rb *RecommendationBuilder) operationUtility(pass *recPass, op query.Operation, seen *ratingmap.SeenSet) (u float64, bounded bool, err error) {
	records, err := pass.records(op)
	if err != nil {
		return 0, false, err
	}
	if len(records) > 0 {
		u, bounded, err = pass.groupUtility(op.Target, records, pass.candidates(op), seen)
	}
	if err == nil && !bounded {
		pass.offer(u)
	}
	return u, bounded, err
}

// CandidateOps enumerates the candidate operations of a step. Per §4.3 a
// candidate differs from the current selection in at most two
// attribute-value pairs: it may add any one attribute-value pair, and may
// additionally remove or change one existing pair. Pure removals and pure
// changes are included. The two-pair combinations are anchored on the
// displayed maps (filtering into a map's subgroup while adjusting one
// existing pair), which is how the paper's Recommendation Builder
// associates candidates with rating maps.
//
// The operations are distinct by construction. A target is fixed by its
// delta from cur — the pair it adds, the one it removes, the one it changes
// and to what — and a description binds an attribute at most once, so
// operations of different deltas have different targets, and none is cur.
// Only two kinds of repeated delta can arise, and neither is made: a
// map-anchored plain Filter, which the single-pair loop has always added
// already (a subgroup is a registered value of an attribute cur leaves
// unbound), and an anchor that a second map on the same attribute repeats,
// whose operations its first occurrence made.
func (rb *RecommendationBuilder) CandidateOps(cur query.Description, maps []*ratingmap.RatingMap) ([]query.Operation, error) {
	lim := rb.Ex.Cfg.Limits
	// The values each selector of cur may change to, read once a call: the
	// roll-ups and sideways moves and every anchor's combinations share them.
	// moves counts what the selectors make on one base, cur or an anchor's
	// cur + ⟨a, v⟩: a removal each and a change per value, so the list holds
	// the single-pair filters and (anchors + 1) × moves.
	olds := cur.Selectors()
	changeTo := make([][]string, len(olds))
	moves := 0
	for i, old := range olds {
		vals, err := rb.Ex.Query.AttributeValues(old.Side, old.Attr)
		if err != nil {
			return nil, err
		}
		changeTo[i] = capped(vals, lim.MaxValuesPerAttribute)
		moves += 1 + len(changeTo[i])
		if slices.Contains(changeTo[i], old.Value) {
			moves--
		}
	}
	var anchors []query.Selector
	for _, rm := range maps {
		dict := rb.dictOf(rm)
		for _, sg := range capped(rm.Subgroups, lim.MaxValuesPerAttribute) {
			sel := query.Selector{Side: rm.Side, Attr: rm.Attr, Value: dict.Value(sg.Value)}
			if !cur.BindsAttr(sel.Side, sel.Attr) && !slices.Contains(anchors, sel) {
				anchors = append(anchors, sel)
			}
		}
	}
	tables := rb.Ex.tables()
	n := (len(anchors) + 1) * moves
	for side, t := range tables {
		for a := 0; a < t.Schema.Len(); a++ {
			if !cur.BindsAttr(query.Side(side), t.Schema.At(a).Name) {
				n += t.ValueCardinality(a)
			}
		}
	}
	if lim.MaxCandidates > 0 {
		n = min(n, lim.MaxCandidates)
	}
	ops := make([]query.Operation, 0, n)
	add := func(op query.Operation) bool {
		ops = append(ops, op)
		return lim.MaxCandidates == 0 || len(ops) < lim.MaxCandidates
	}

	// All single-pair filter additions over unbound attributes. The
	// per-attribute value cap deliberately does not apply here: single-pair
	// candidates are the cheap, load-bearing ones, and truncating the value
	// list would hide exactly the operations the user needs.
	for side, t := range tables {
		for a := 0; a < t.Schema.Len(); a++ {
			attr := t.Schema.At(a).Name
			if cur.BindsAttr(query.Side(side), attr) {
				continue
			}
			for _, v := range t.Dict(a).Values() {
				sel := query.Selector{Side: query.Side(side), Attr: attr, Value: v}
				target, err := cur.With(sel)
				if err != nil {
					continue
				}
				s := sel
				if !add(query.Operation{Kind: query.Filter, Target: target, Added: &s}) {
					return ops, nil
				}
			}
		}
	}

	// Map-anchored drill-downs: filter to each subgroup of each displayed
	// map — the plain Filter is made above — combined with one removal or
	// change.
	for _, s := range anchors {
		target, err := cur.With(s)
		if err != nil {
			continue
		}
		for i, old := range olds {
			if t2, err := target.Without(old); err == nil {
				if !add(query.Operation{Kind: query.FilterGeneralize, Target: t2, Added: &s, Removed: &old}) {
					return ops, nil
				}
			}
			for _, v := range changeTo[i] {
				if v == old.Value {
					continue
				}
				if t2, err := target.WithChanged(old, v); err == nil {
					if !add(query.Operation{Kind: query.FilterChange, Target: t2, Added: &s, Changed: &old, ChangedTo: v}) {
						return ops, nil
					}
				}
			}
		}
	}

	// Pure roll-ups and sideways moves on the current description — SDD and
	// Qagview cannot produce these, which Table 4 shows matters.
	for i, old := range olds {
		if target, err := cur.Without(old); err == nil {
			if !add(query.Operation{Kind: query.Generalize, Target: target, Removed: &old}) {
				return ops, nil
			}
		}
		for _, v := range changeTo[i] {
			if v == old.Value {
				continue
			}
			if target, err := cur.WithChanged(old, v); err == nil {
				if !add(query.Operation{Kind: query.Change, Target: target, Changed: &old, ChangedTo: v}) {
					return ops, nil
				}
			}
		}
	}
	return ops, nil
}

// capped is the first max elements of s; max ≤ 0 keeps all of them
// (CandidateLimits.MaxValuesPerAttribute).
func capped[T any](s []T, max int) []T {
	if max > 0 && len(s) > max {
		return s[:max]
	}
	return s
}

// tables are the database's entity tables, indexed by query.Side.
func (ex *Explorer) tables() [2]*dataset.EntityTable {
	return [...]*dataset.EntityTable{query.ReviewerSide: ex.DB.Reviewers, query.ItemSide: ex.DB.Items}
}

// dictOf resolves the value dictionary of a map's grouping attribute.
func (rb *RecommendationBuilder) dictOf(rm *ratingmap.RatingMap) *dataset.Dictionary {
	var t *dataset.EntityTable
	if rm.Side == query.ReviewerSide {
		t = rb.Ex.DB.Reviewers
	} else {
		t = rb.Ex.DB.Items
	}
	return t.DictByName(rm.Attr)
}
