package core

import "subdex/internal/query"

// OperationScorer ranks candidate next-step operations by re-weighting
// Equation 2 (the sum of DW utilities of the rating maps the operation's
// group would display). The paper notes (§5.2.2) that "due to the modular
// nature of SubDEx the Recommendation Builder may be replaced with
// alternative implementations, yielding personalized recommendations using
// logs of previous operations, or user feedback" — this interface is that
// replacement point. The builder computes eq2 itself, on the group it
// derived for the candidate, so a scorer never evaluates a group.
type OperationScorer interface {
	// ScoreOperation returns the ranking utility of op given eq2, its
	// Equation 2 utility under the maps the user has already seen.
	ScoreOperation(op query.Operation, eq2 float64) float64
}

// EquationTwoScorer is the paper's ranking: u(q, RM) = Σ û(rm, RM) over the
// k rating maps of q's target group — what a nil Config.Scorer selects.
type EquationTwoScorer struct{}

// ScoreOperation returns eq2 unchanged.
func (EquationTwoScorer) ScoreOperation(_ query.Operation, eq2 float64) float64 { return eq2 }

// LogAffinityScorer personalizes Equation 2 with a log of the user's past
// operations: candidates touching attributes the user has shown interest in
// get boosted, the way log-based recommenders (Eirinaki et al. [23], Milo &
// Somech [42]) exploit session history. The boost is multiplicative:
//
//	score = eq2 × (1 + Alpha × affinity)
//
// where affinity ∈ [0,1] is the fraction of the operation's touched
// attributes that appear in the log.
type LogAffinityScorer struct {
	// Alpha controls the personalization strength; 0 degrades to Eq. 2.
	Alpha float64

	attrUse map[string]int
	total   int
}

// Observe records an applied operation into the log. Operations carrying
// no explicit delta (e.g. a selection typed into the advanced screen)
// contribute every attribute of their target selection.
func (l *LogAffinityScorer) Observe(op query.Operation) {
	if l.attrUse == nil {
		l.attrUse = make(map[string]int)
	}
	attrs := touchedAttrs(op)
	if len(attrs) == 0 {
		for _, sel := range op.Target.Selectors() {
			attrs = append(attrs, sel.Side.String()+"."+sel.Attr)
		}
	}
	for _, attr := range attrs {
		l.attrUse[attr]++
		l.total++
	}
}

// ScoreOperation boosts Equation 2 by the operation's attribute affinity
// with the observed log.
func (l *LogAffinityScorer) ScoreOperation(op query.Operation, eq2 float64) float64 {
	if l.total == 0 || l.Alpha == 0 {
		return eq2
	}
	touched := touchedAttrs(op)
	if len(touched) == 0 {
		return eq2
	}
	hits := 0
	for _, attr := range touched {
		if l.attrUse[attr] > 0 {
			hits++
		}
	}
	affinity := float64(hits) / float64(len(touched))
	return eq2 * (1 + l.Alpha*affinity)
}

// touchedAttrs lists the side-qualified attributes an operation acts on.
func touchedAttrs(op query.Operation) []string {
	var out []string
	add := func(s *query.Selector) {
		if s != nil {
			out = append(out, s.Side.String()+"."+s.Attr)
		}
	}
	add(op.Added)
	add(op.Removed)
	add(op.Changed)
	return out
}
