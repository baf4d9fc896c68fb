package baselines

import (
	"subdex/internal/core"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// SmartDrillDown reimplements the interesting-rule-list operator of
// Joglekar et al. [35] as a next-action recommender. A rule is a
// conjunction of attribute-value pairs over the joined table; a k-rule list
// is interesting when (1) rules cover a large fraction of the group, (2)
// rules are specific (bind several attributes), and (3) rules are diverse
// (marginal coverage: records already covered by chosen rules contribute
// nothing). The greedy score of a candidate rule given the chosen list is
//
//	score(r | chosen) = marginalCoverage(r) × (W + |r|)
//
// with W the weight balancing coverage against specificity ([35] uses a
// per-non-⋆ attribute weight), sddW here.
type SmartDrillDown struct{}

// sddW is SmartDrillDown's W.
const sddW = 1

// Name identifies the baseline in experiment tables.
func (SmartDrillDown) Name() string { return "SDD" }

// Next returns the greedy interesting rule list of the current selection's
// rating group, o rules long at most.
func (s SmartDrillDown) Next(ex *core.Explorer, cur query.Description, _ []*ratingmap.RatingMap,
	_ *ratingmap.SeenSet, o int) ([]query.Operation, error) {
	g, err := ex.Query.Materialize(cur)
	if err != nil {
		return nil, err
	}
	return s.recommend(ex.Query, cur, g.Records, o)
}

// recommend returns k drill-down operations: the greedy interesting rule
// list of the rating group of cur whose ascending records are given.
func (SmartDrillDown) recommend(qe *query.Engine, cur query.Description, records []int32, k int) ([]query.Operation, error) {
	ci, err := buildCoverageIndex(qe, cur, records)
	if err != nil {
		return nil, err
	}
	return ci.choose(cur, k, func(r rule, marginal int, _ []rule) float64 {
		return float64(marginal) * float64(sddW+len(r.pairIDs))
	}), nil
}
