package workload

import (
	"context"
	"strconv"

	"subdex/internal/core"
)

// InprocClient drives a core.Session directly — the in-process arm of the
// workload harness. It produces the same StepView normal form as the HTTP
// client, which is what makes the two modes byte-comparable.
type InprocClient struct {
	ex   *core.Explorer
	sess *core.Session
}

// NewInprocClient opens a session on the explorer in the given mode,
// optionally starting at a predicate ("" starts from the whole database,
// exactly like an empty predicate on POST /sessions).
func NewInprocClient(ex *core.Explorer, mode core.Mode, predicate string) (*InprocClient, error) {
	desc, err := ex.ParseDescription(orTrue(predicate))
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(ex, mode, desc)
	if err != nil {
		return nil, err
	}
	return &InprocClient{ex: ex, sess: sess}, nil
}

// orTrue maps the empty predicate to the parser's whole-database literal.
func orTrue(predicate string) string {
	if predicate == "" {
		return "TRUE"
	}
	return predicate
}

// Session exposes the underlying session, e.g. for trace recording.
func (c *InprocClient) Session() *core.Session { return c.sess }

// Step implements Client.
func (c *InprocClient) Step(ctx context.Context) (*StepView, error) {
	st, err := c.sess.StepCtx(ctx)
	if err != nil {
		return nil, err
	}
	return c.view(st), nil
}

// Apply implements Client.
func (c *InprocClient) Apply(_ context.Context, predicate string) error {
	d, err := c.ex.ParseDescription(predicate)
	if err != nil {
		return err
	}
	return c.sess.ApplyDescription(d)
}

// ApplyRecommendation implements Client.
func (c *InprocClient) ApplyRecommendation(_ context.Context, i int) error {
	return c.sess.ApplyRecommendation(i)
}

// Back implements Client.
func (c *InprocClient) Back(_ context.Context) (bool, error) {
	return c.sess.Back(), nil
}

// Summary implements Client.
func (c *InprocClient) Summary(_ context.Context) (*SummaryView, error) {
	sum := c.sess.Summarize()
	sv := &SummaryView{
		Steps:              sum.Steps,
		TotalUtility:       sum.TotalUtility,
		DistinctAttributes: sum.DistinctAttributes,
		AvgDiversity:       sum.AvgDiversity,
		MapsPerDimension:   make(map[string]int, len(sum.MapsPerDimension)),
	}
	// Stringify dimension indices the way encoding/json renders the
	// server's map[int]int, so both modes summarize identically.
	for dim, n := range sum.MapsPerDimension {
		sv.MapsPerDimension[strconv.Itoa(dim)] = n
	}
	return sv, nil
}

// Close implements Client. In-process sessions have no server-side state
// to release.
func (c *InprocClient) Close(_ context.Context) error { return nil }

// view normalizes a StepResult into the shared StepView form, mirroring
// the server's stepJSON field by field.
func (c *InprocClient) view(st *core.StepResult) *StepView {
	sv := &StepView{
		Selection:        st.Desc.String(),
		GroupSize:        st.GroupSize,
		Degraded:         st.Degraded,
		RecordsProcessed: st.RecordsProcessed,
		TraceID:          st.TraceID,
		Profile:          st.Profile,
	}
	for i, rm := range st.Maps {
		mv := MapView{
			GroupBy:   rm.Side.String() + "." + rm.Attr,
			Dimension: rm.DimName,
			Utility:   st.Utilities[i],
			Digest:    st.Digests[i],
		}
		dict := c.ex.DictFor(rm)
		for j := range rm.Subgroups {
			mv.Bars = append(mv.Bars, dict.Value(rm.Subgroups[j].Value))
		}
		sv.Maps = append(sv.Maps, mv)
	}
	for _, rec := range st.Recommendations {
		sv.Recommendations = append(sv.Recommendations, RecView{
			Operation: rec.Op.String(),
			Target:    rec.Op.Target.String(),
			Utility:   rec.Utility,
		})
	}
	return sv
}
