package baselines

import (
	"subdex/internal/core"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Qagview reimplements the diverse top-aggregate summarizer of Wen et al.
// [58] as a next-action recommender: a k-cluster summary of the rating
// group where each cluster is a pattern (attribute-value conjunction over
// the joined table) and any two chosen patterns differ in at least D
// attribute-values. Per the paper's setup (§5.1) every record has value 1,
// the coverage threshold is |g_R|/2, and D = 2 (qagviewD). The greedy
// adds the pattern of largest marginal coverage until k are chosen, so the
// threshold is never a stopping rule: k patterns are returned whenever k
// fit, whether or not they reach it.
type Qagview struct{}

// qagviewD is Qagview's D.
const qagviewD = 2

// Name identifies the baseline in experiment tables.
func (Qagview) Name() string { return "Qagview" }

// Next returns the diverse summary of the current selection's rating
// group, o clusters at most.
func (q Qagview) Next(ex *core.Explorer, cur query.Description, _ []*ratingmap.RatingMap,
	_ *ratingmap.SeenSet, o int) ([]query.Operation, error) {
	g, err := ex.Query.Materialize(cur)
	if err != nil {
		return nil, err
	}
	return q.recommend(ex.Query, cur, g.Records, o)
}

// patternDistance counts attribute-value pairs present in exactly one of
// the two patterns (symmetric difference), the D measure of [58].
func patternDistance(a, b []int32) int {
	inA := make(map[int32]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	d := 0
	for _, x := range b {
		if inA[x] {
			delete(inA, x)
		} else {
			d++
		}
	}
	return d + len(inA)
}

// recommend returns up to k drill-down operations forming a diverse
// summary of the rating group of cur whose ascending records are given:
// greedily add the pattern with maximal marginal coverage whose distance
// to every chosen pattern is at least D.
func (Qagview) recommend(qe *query.Engine, cur query.Description, records []int32, k int) ([]query.Operation, error) {
	ci, err := buildCoverageIndex(qe, cur, records)
	if err != nil {
		return nil, err
	}
	return ci.choose(cur, k, func(r rule, marginal int, chosen []rule) float64 {
		for _, c := range chosen {
			if patternDistance(r.pairIDs, c.pairIDs) < qagviewD {
				return 0
			}
		}
		return float64(marginal)
	}), nil
}
