package study

import (
	"subdex/internal/core"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// OpSource supplies next-action operations for the Table 4 comparison: the
// rating maps shown at each step are fixed (SubDEx's RM-Set), and only the
// source of next-action recommendations varies between SubDEx
// (SubdexSource) and the two baselines, baselines.SmartDrillDown and
// baselines.Qagview.
type OpSource interface {
	Name() string
	Next(ex *core.Explorer, cur query.Description, maps []*ratingmap.RatingMap,
		seen *ratingmap.SeenSet, o int) ([]query.Operation, error)
}

// SubdexSource yields SubDEx's own Equation-2-ranked recommendations.
type SubdexSource struct{}

// Name identifies the source.
func (SubdexSource) Name() string { return "SubDEx" }

// Next delegates to the Recommendation Builder.
func (SubdexSource) Next(ex *core.Explorer, cur query.Description, maps []*ratingmap.RatingMap,
	seen *ratingmap.SeenSet, o int) ([]query.Operation, error) {
	rb := core.RecommendationBuilder{Ex: ex}
	recs, _, err := rb.Recommend(cur, maps, seen, o)
	if err != nil {
		return nil, err
	}
	ops := make([]query.Operation, 0, len(recs))
	for _, rec := range recs {
		ops = append(ops, rec.Op)
	}
	return ops, nil
}

// GeneratePath walks a User-Driven session for up to pathLen steps,
// applying the source's top-1 operation after each step but the last, and
// stops early when the source has none. The session's Steps() are the
// path. Used by Table 4 (one path per op source, then subjects score it)
// and by the experiments that need fixed paths; with SubdexSource the path
// is the Fully-Automated auto-pilot's.
func GeneratePath(ex *core.Explorer, src OpSource, pathLen int) (*core.Session, error) {
	sess, err := core.NewSession(ex, core.UserDriven, query.Description{})
	if err != nil {
		return nil, err
	}
	for step := 0; step < pathLen; step++ {
		res, err := sess.Step()
		if err != nil {
			return nil, err
		}
		if step == pathLen-1 {
			break
		}
		ops, err := src.Next(ex, res.Desc, res.Maps, sess.Seen(), ex.Cfg.O)
		if err != nil {
			return nil, err
		}
		if len(ops) == 0 {
			break
		}
		if err := sess.Apply(ops[0]); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// ReplayPath walks a fixed path's selections on a fresh User-Driven session
// of another explorer, which recomputes the displayed rating maps under its
// own configuration — the §5.2.3 methodology of fixing next-action
// operations while varying the map-selection policy.
func ReplayPath(ex *core.Explorer, fixed []*core.StepResult) (*core.Session, error) {
	sess, err := core.NewSession(ex, core.UserDriven, query.Description{})
	if err != nil {
		return nil, err
	}
	for _, st := range fixed {
		if err := sess.ApplyDescription(st.Desc); err != nil {
			return nil, err
		}
		if _, err := sess.Step(); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// ScorePath has n subjects examine a fixed path and returns the average
// number of targets identified — the Table 4 and Table 6 measurement.
func ScorePath(ex *core.Explorer, det Detector, path []*core.StepResult, n int, seed int64) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		subj := NewSubject(i, LowCS, LowDomain, seed)
		if i%2 == 1 {
			subj = NewSubject(i, HighCS, HighDomain, seed)
		}
		found := make(map[int]bool)
		for _, st := range path {
			for _, e := range det.Exposed(ex, st.Desc, st.Maps) {
				if found[e.Target] {
					continue
				}
				p := subj.NoticeProb()
				if !e.Exact {
					p *= subj.VerifyProb()
				}
				if subj.Rng.Float64() < p {
					found[e.Target] = true
				}
			}
		}
		total += float64(len(found))
	}
	return total / float64(n)
}
