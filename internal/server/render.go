// The JSON shapes of the session surface and how engine results render
// into them.

package server

import (
	"subdex/internal/core"
	"subdex/internal/ratingmap"
)

// StepJSON is the display payload of one exploration step.
type StepJSON struct {
	Selection       string               `json:"selection"`
	GroupSize       int                  `json:"group_size"`
	Reviewers       int                  `json:"reviewers"`
	Items           int                  `json:"items"`
	Maps            []MapJSON            `json:"maps"`
	Recommendations []RecommendationJSON `json:"recommendations,omitempty"`
	GenMillis       float64              `json:"generation_ms"`
	RecMillis       float64              `json:"recommendation_ms"`
	// Degraded marks an anytime result: the step deadline cut the scan
	// short after a phase boundary, so the maps rank candidates over the
	// first RecordsProcessed records of the group (and recommendations
	// may be missing). Clients should render it as a best-effort answer.
	Degraded         bool `json:"degraded"`
	RecordsProcessed int  `json:"records_processed,omitempty"`
	// TraceID is the correlation ID the step ran under — the caller's
	// traceparent trace ID, or a server-minted one. Resolve it against
	// /debug/spans?trace= and /debug/flightrecorder?trace=.
	TraceID string `json:"trace_id,omitempty"`
	// Profile is the step's EXPLAIN record, present only under ?explain=1.
	Profile *core.StepProfile `json:"profile,omitempty"`
}

// MapJSON is one rating map.
type MapJSON struct {
	GroupBy   string    `json:"group_by"` // side.attr
	Dimension string    `json:"dimension"`
	Utility   float64   `json:"utility"`
	WonBy     string    `json:"won_by"` // the criterion the map was ranked by (StepResult.Scores)
	Bars      []BarJSON `json:"bars"`
	// Digest is the canonical byte-stable fingerprint of the rating map
	// (ratingmap.Digest): two maps digest equally iff their accumulated
	// counts are identical. The workload harness uses it to prove that an
	// HTTP-driven session shows byte-identical displays to an in-process
	// one, and golden-trace regression tests pin it across releases.
	Digest string `json:"digest"`
}

// BarJSON is one subgroup bar.
type BarJSON struct {
	Value    string  `json:"value"`
	Records  int     `json:"records"`
	Counts   []int   `json:"distribution"` // index i = rating i+1
	AvgScore float64 `json:"avg_score"`
	Mode     int     `json:"mode_score"`
}

// RecommendationJSON is one ranked next-step operation.
type RecommendationJSON struct {
	Utility   float64 `json:"utility"`
	Operation string  `json:"operation"`
	Target    string  `json:"target"`
}

func (s *Server) stepJSON(step *core.StepResult, explain bool) StepJSON {
	out := StepJSON{
		Selection:        step.Desc.String(),
		GroupSize:        step.GroupSize,
		Reviewers:        step.NumMatched.Reviewers,
		Items:            step.NumMatched.Items,
		GenMillis:        float64(step.GenDuration.Microseconds()) / 1000,
		RecMillis:        float64(step.RecDuration.Microseconds()) / 1000,
		Degraded:         step.Degraded,
		RecordsProcessed: step.RecordsProcessed,
		TraceID:          step.TraceID,
	}
	if explain {
		out.Profile = step.Profile
	}
	for i, rm := range step.Maps {
		out.Maps = append(out.Maps, s.mapJSON(rm, step.Utilities[i], step.Scores[i], step.Digests[i]))
	}
	for _, rec := range step.Recommendations {
		out.Recommendations = append(out.Recommendations, RecommendationJSON{
			Utility:   rec.Utility,
			Operation: rec.Op.String(),
			Target:    rec.Op.Target.String(),
		})
	}
	return out
}

func (s *Server) mapJSON(rm *ratingmap.RatingMap, utility float64, scores ratingmap.Scores, digest string) MapJSON {
	winner, _ := scores.Best()
	mj := MapJSON{
		GroupBy:   rm.Side.String() + "." + rm.Attr,
		Dimension: rm.DimName,
		Utility:   utility,
		WonBy:     winner.String(),
		Digest:    digest,
	}
	dict := s.ex.DictFor(rm)
	for i := range rm.Subgroups {
		sg := &rm.Subgroups[i]
		mj.Bars = append(mj.Bars, BarJSON{
			Value:    dict.Value(sg.Value),
			Records:  sg.N,
			Counts:   sg.Counts,
			AvgScore: sg.AvgScore(),
			Mode:     sg.ModeScore(),
		})
	}
	return mj
}

func summaryJSON(sum core.PathSummary) map[string]any {
	return map[string]any{
		"steps":               sum.Steps,
		"total_utility":       sum.TotalUtility,
		"distinct_attributes": sum.DistinctAttributes,
		"avg_diversity":       sum.AvgDiversity,
		"maps_per_dimension":  sum.MapsPerDimension,
	}
}
