// Package baselines implements the two state-of-the-art next-action
// recommenders SubDEx is compared against in Table 4 (§5.1):
//
//   - Smart Drill-Down (Joglekar, Garcia-Molina & Parameswaran [35]): an
//     interactive operator returning a k-size rule list of "interesting"
//     parts of a table, scored by coverage, specificity, and diversity.
//   - Qagview (Wen, Zhu, Roy & Yang [58]): a k-cluster diverse summary of a
//     query result, covering at least a threshold of the records with
//     clusters that differ pairwise in at least D attribute-values.
//
// Following the paper's setup, the reviewer, item and rating tables are
// joined, so every rule/cluster is a simultaneous selection over reviewer
// and item attributes — and, crucially, both baselines can only produce
// drill-down (subset) operations, never roll-ups, which is what Table 4
// exposes. Both satisfy study.OpSource.
package baselines

import (
	"cmp"
	"slices"
	"sort"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// topSingles bounds both baselines' candidate universe to the most-covering
// single pairs before they are composed into two-pair rules. Rules hold at
// most two pairs, matching SubDEx's candidate operations, so the comparison
// is fair.
const topSingles = 40

// pair is one (side, attribute, value) cell of the joined table, with the
// group's records that carry it.
type pair struct {
	side  query.Side
	attr  string
	value dataset.ValueID
	// records ascend: a bucket of a query.Partition, shared with it and
	// read-only.
	records []int32
}

// coverageIndex lists the attribute-value pairs a rating group's records
// carry, with each pair's records.
type coverageIndex struct {
	db    *dataset.DB
	pairs []pair
}

// buildCoverageIndex partitions the group's records, ascending like
// RatingGroup.Records, by every attribute cur leaves unbound — both
// baselines extend the current selection — and keeps each value's bucket
// but the missing value's. A pair's id is its index in the order a scan of
// the group meets the pairs first: attribute by attribute, reviewer side
// first, and within an attribute by first record, then value id.
func buildCoverageIndex(qe *query.Engine, cur query.Description, records []int32) (*coverageIndex, error) {
	ci := &coverageIndex{db: qe.DB}
	for _, side := range []query.Side{query.ReviewerSide, query.ItemSide} {
		t := qe.DB.Reviewers
		if side == query.ItemSide {
			t = qe.DB.Items
		}
		for a := 0; a < t.Schema.Len(); a++ {
			name := t.Schema.At(a).Name
			if cur.BindsAttr(side, name) {
				continue
			}
			part, err := qe.Partition(records, side, name, 0)
			if err != nil {
				return nil, err
			}
			dict := t.Dict(a)
			first := len(ci.pairs)
			for v := dataset.MissingValue + 1; int(v) < dict.Len(); v++ {
				bucket, err := part.Bucket(dict.Value(v))
				if err != nil {
					return nil, err
				}
				if len(bucket) > 0 {
					ci.pairs = append(ci.pairs, pair{side, name, v, bucket})
				}
			}
			// Stable: pairs first met in one record keep value-id order.
			slices.SortStableFunc(ci.pairs[first:], func(x, y pair) int {
				return cmp.Compare(x.records[0], y.records[0])
			})
		}
	}
	return ci, nil
}

// topPairs returns the n most-covering pair ids.
func (ci *coverageIndex) topPairs(n int) []int32 {
	ids := make([]int32, len(ci.pairs))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool { return len(ci.pairs[ids[a]].records) > len(ci.pairs[ids[b]].records) })
	if n > 0 && len(ids) > n {
		ids = ids[:n]
	}
	return ids
}

// selector converts a pair into a query selector.
func (ci *coverageIndex) selector(p pair) query.Selector {
	t := ci.db.Reviewers
	if p.side == query.ItemSide {
		t = ci.db.Items
	}
	return query.Selector{Side: p.side, Attr: p.attr, Value: t.DictByName(p.attr).Value(p.value)}
}

// rule is a conjunction of pairs with its covered records.
type rule struct {
	pairIDs []int32
	covered []int32 // ascending
}

// coveredBy returns the records carrying every pair of a conjunction: the
// intersection of the pairs' ascending record lists.
func (ci *coverageIndex) coveredBy(pairIDs []int32) []int32 {
	out := ci.pairs[pairIDs[0]].records
	for _, id := range pairIDs[1:] {
		var both []int32
		b := ci.pairs[id].records
		for i, j := 0, 0; i < len(out) && j < len(b); {
			switch {
			case out[i] < b[j]:
				i++
			case out[i] > b[j]:
				j++
			default:
				both = append(both, out[i])
				i++
				j++
			}
		}
		out = both
	}
	return out
}

// rules enumerates the candidate rules both baselines choose among: each of
// the topSingles most-covering pairs, then each two of them over distinct
// attributes that some record carries together.
func (ci *coverageIndex) rules() []rule {
	singles := ci.topPairs(topSingles)
	var out []rule
	for _, id := range singles {
		out = append(out, rule{pairIDs: []int32{id}, covered: ci.coveredBy([]int32{id})})
	}
	for i, a := range singles {
		for _, b := range singles[i+1:] {
			if pa, pb := &ci.pairs[a], &ci.pairs[b]; pa.side == pb.side && pa.attr == pb.attr {
				continue // two values of one attribute never co-occur usefully
			}
			ids := []int32{a, b}
			if cov := ci.coveredBy(ids); len(cov) > 0 {
				out = append(out, rule{pairIDs: ids, covered: cov})
			}
		}
	}
	return out
}

// choose is both baselines' greedy: up to k times it takes the candidate
// rule of highest positive score — given its marginal coverage (its
// records no chosen rule covers) and the rules chosen so far, the first on
// a tie — and lists it as a drill-down of cur, unless its target collides
// with cur or is already listed.
func (ci *coverageIndex) choose(cur query.Description, k int, score func(r rule, marginal int, chosen []rule) float64) []query.Operation {
	candidates := ci.rules()
	covered := make([]bool, ci.db.Ratings.Len())
	var chosen []rule
	var ops []query.Operation
	listed := make(map[string]bool)
	for len(ops) < k {
		best, bestScore := -1, 0.0
		for i, c := range candidates {
			marginal := 0
			for _, r := range c.covered {
				if !covered[r] {
					marginal++
				}
			}
			if s := score(c, marginal, chosen); s > bestScore {
				best, bestScore = i, s
			}
		}
		if best < 0 {
			break
		}
		r := candidates[best]
		candidates = slices.Delete(candidates, best, best+1)
		op, ok := ci.operationFor(cur, r.pairIDs)
		if !ok || listed[op.Target.Key()] {
			continue
		}
		listed[op.Target.Key()] = true
		chosen = append(chosen, r)
		for _, rec := range r.covered {
			covered[rec] = true
		}
		ops = append(ops, op)
	}
	return ops
}

// operationFor converts a rule into a drill-down operation on cur. Rules
// whose pairs collide with cur's bound attributes return ok=false.
func (ci *coverageIndex) operationFor(cur query.Description, pairIDs []int32) (query.Operation, bool) {
	target := cur
	var added *query.Selector
	for _, id := range pairIDs {
		sel := ci.selector(ci.pairs[id])
		t, err := target.With(sel)
		if err != nil {
			return query.Operation{}, false
		}
		target = t
		if added == nil {
			s := sel
			added = &s
		}
	}
	return query.Operation{Kind: query.Filter, Target: target, Added: added}, true
}
