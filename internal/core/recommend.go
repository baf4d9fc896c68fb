package core

import (
	"context"
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
	pass := newRecPass(rb.Ex, group, o)
	defer pass.describe(span)

	durations := make([]time.Duration, 0, len(ops))
	var recs []Recommendation
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
			recs = append(recs, Recommendation{Op: op, Utility: u})
		}
		durations = append(durations, time.Since(start))
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Utility > recs[j].Utility })
	if o > 0 && len(recs) > o {
		recs = recs[:o]
	}
	span.SetAttr("evaluated", len(durations))
	span.SetAttr("recommended", len(recs))
	return recs, durations, nil
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
		u, bounded, err = rb.Ex.groupUtility(op.Target, records, pass.candidates(op), seen, pass.gate)
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
// associates candidates with rating maps. Duplicate targets are merged.
func (rb *RecommendationBuilder) CandidateOps(cur query.Description, maps []*ratingmap.RatingMap) ([]query.Operation, error) {
	lim := rb.Ex.Cfg.Limits
	seen := map[string]bool{cur.Key(): true}
	var ops []query.Operation
	add := func(op query.Operation) bool {
		k := op.Target.Key()
		if seen[k] {
			return true
		}
		seen[k] = true
		ops = append(ops, op)
		return lim.MaxCandidates == 0 || len(ops) < lim.MaxCandidates
	}

	// All single-pair filter additions over unbound attributes. The
	// per-attribute value cap deliberately does not apply here: single-pair
	// candidates are the cheap, load-bearing ones, and truncating the value
	// list would hide exactly the operations the user needs.
	for _, side := range []query.Side{query.ReviewerSide, query.ItemSide} {
		var t = rb.Ex.DB.Reviewers
		if side == query.ItemSide {
			t = rb.Ex.DB.Items
		}
		for a := 0; a < t.Schema.Len(); a++ {
			attr := t.Schema.At(a).Name
			if cur.BindsAttr(side, attr) {
				continue
			}
			values := t.Dict(a).Values()
			for _, v := range values {
				sel := query.Selector{Side: side, Attr: attr, Value: v}
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
	// map, optionally combined with one removal or change.
	for _, rm := range maps {
		dict := rb.dictOf(rm)
		values := rm.Subgroups
		if lim.MaxValuesPerAttribute > 0 && len(values) > lim.MaxValuesPerAttribute {
			values = values[:lim.MaxValuesPerAttribute]
		}
		for i := range values {
			sel := query.Selector{Side: rm.Side, Attr: rm.Attr, Value: dict.Value(values[i].Value)}
			if cur.BindsAttr(sel.Side, sel.Attr) {
				continue
			}
			target, err := cur.With(sel)
			if err != nil {
				continue
			}
			s := sel
			if !add(query.Operation{Kind: query.Filter, Target: target, Added: &s}) {
				return ops, nil
			}
			for _, old := range cur.Selectors() {
				old := old
				if t2, err := target.Without(old); err == nil {
					if !add(query.Operation{Kind: query.FilterGeneralize, Target: t2, Added: &s, Removed: &old}) {
						return ops, nil
					}
				}
				vals, err := rb.Ex.Query.AttributeValues(old.Side, old.Attr)
				if err != nil {
					return nil, err
				}
				if lim.MaxValuesPerAttribute > 0 && len(vals) > lim.MaxValuesPerAttribute {
					vals = vals[:lim.MaxValuesPerAttribute]
				}
				for _, v := range vals {
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
	}

	// Pure roll-ups and sideways moves on the current description — SDD and
	// Qagview cannot produce these, which Table 4 shows matters.
	for _, old := range cur.Selectors() {
		old := old
		if target, err := cur.Without(old); err == nil {
			if !add(query.Operation{Kind: query.Generalize, Target: target, Removed: &old}) {
				return ops, nil
			}
		}
		vals, err := rb.Ex.Query.AttributeValues(old.Side, old.Attr)
		if err != nil {
			return nil, err
		}
		if lim.MaxValuesPerAttribute > 0 && len(vals) > lim.MaxValuesPerAttribute {
			vals = vals[:lim.MaxValuesPerAttribute]
		}
		for _, v := range vals {
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
