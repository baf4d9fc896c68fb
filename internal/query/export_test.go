package query

// The seam the tests and BenchmarkMaterialize force a collection strategy
// through, whatever sweepPays would have chosen — as updateWith does for
// the scan kernel's two strategies in ratingmap's reference_test.go.

// Strategy names one way materialize collects a group's records.
type Strategy string

const (
	Index Strategy = "index" // gather: walk the smaller side's record index
	Sweep Strategy = "sweep" // sweep: one pass over the rating table in order
)

// MaterializeWith is an uncached materialization that collects every
// description's records — the root's and an empty group's too — the one
// given way.
func (e *Engine) MaterializeWith(d Description, s Strategy) (*RatingGroup, error) {
	g, err := e.entityGroups(d)
	if err != nil {
		return nil, err
	}
	if s == Sweep {
		g.Records = e.sweep(g.Reviewers, g.Items)
	} else {
		g.Records = e.gather(e.walkSides(g.Reviewers, g.Items))
	}
	return g, nil
}

// WalkVisits returns how many records the index walk for d would visit and
// which strategy materialize picks for it (the root and empty groups, which
// take neither, aside).
func (e *Engine) WalkVisits(d Description) (int, Strategy, error) {
	g, err := e.entityGroups(d)
	if err != nil {
		return 0, "", err
	}
	from, recordsOf, _, _ := e.walkSides(g.Reviewers, g.Items)
	visited := 0
	for _, row := range from.Elements(nil) {
		visited += len(recordsOf(int(row)))
	}
	if e.sweepPays(from, recordsOf) {
		return visited, Sweep, nil
	}
	return visited, Index, nil
}
