package study

import (
	"reflect"
	"slices"
	"testing"

	"subdex/internal/baselines"
	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/dataset/datasettest"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

func studyExplorer(t testing.TB) (*core.Explorer, []gen.IrregularGroup) {
	t.Helper()
	db, err := gen.Movielens(gen.Config{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := gen.PlantIrregularGroups(db, 42, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.RecSampleSize = 500
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ex, groups
}

// firstStep is the display a fresh User-Driven session shows at desc.
func firstStep(t testing.TB, ex *core.Explorer, desc query.Description) (*core.Session, *core.StepResult) {
	t.Helper()
	sess, err := core.NewSession(ex, core.UserDriven, desc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	return sess, res
}

func TestSubjectProbabilities(t *testing.T) {
	high := NewSubject(1, HighCS, HighDomain, 7)
	low := NewSubject(2, LowCS, LowDomain, 7)
	if high.NoticeProb() <= low.NoticeProb() {
		t.Error("high CS must notice more")
	}
	if high.SmartActionProb() <= low.SmartActionProb() {
		t.Error("high CS must act smarter")
	}
	if high.VerifyProb() <= low.VerifyProb() {
		t.Error("high CS must verify more")
	}
	for _, p := range []float64{high.NoticeProb(), low.NoticeProb(),
		high.SmartActionProb(), low.SmartActionProb(),
		high.FollowRecProb(), low.FollowRecProb(),
		high.VerifyProb(), low.VerifyProb()} {
		if p < 0 || p > 1 {
			t.Errorf("probability out of range: %v", p)
		}
	}
	// Domain knowledge has a negligible effect, per the paper's finding.
	domHigh := NewSubject(1, HighCS, HighDomain, 7)
	domLow := NewSubject(1, HighCS, LowDomain, 7)
	if diff := domHigh.NoticeProb() - domLow.NoticeProb(); diff < 0 || diff > 0.05 {
		t.Errorf("domain effect should be tiny, got %v", diff)
	}
}

func TestIrregularDetectorExactExposure(t *testing.T) {
	ex, groups := studyExplorer(t)
	det := &IrregularDetector{Groups: groups}
	if det.NumTargets() != len(groups) {
		t.Fatal("NumTargets wrong")
	}
	// Drilling exactly into a planted group and showing a map on its
	// dimension must expose it exactly.
	g := groups[0]
	desc := g.Description()
	_, res := firstStep(t, ex, desc)
	exposures := det.Exposed(ex, desc, res.Maps)
	foundExact := false
	for _, e := range exposures {
		if e.Target == 0 && e.Exact {
			foundExact = true
			if e.Slack != 0 {
				t.Errorf("exact exposure with slack %d", e.Slack)
			}
		}
	}
	if !foundExact {
		t.Errorf("fully pinned planted group not exposed: %v (group %v)", exposures, g)
	}
}

func TestIrregularDetectorNoFalsePositiveAtRoot(t *testing.T) {
	ex, groups := studyExplorer(t)
	det := &IrregularDetector{Groups: groups}
	_, res := firstStep(t, ex, query.Description{})
	for _, e := range det.Exposed(ex, query.Description{}, res.Maps) {
		if e.Exact {
			// Exact exposure straight from the root display is possible
			// only when a single bar pinpoints the whole group — verify it.
			g := groups[e.Target]
			if len(g.Selectors) > 1 {
				// needs a genuinely identifying bar; accept but verify the
				// detector agrees with itself on a recheck
				again := det.Exposed(ex, query.Description{}, res.Maps)
				if len(again) == 0 {
					t.Error("detector not deterministic")
				}
			}
		}
	}
}

func TestInsightDetector(t *testing.T) {
	insights := gen.YelpInsights()
	db, err := gen.Yelp(gen.Config{Seed: 8, Scale: 0.1, ForcedBiases: gen.InsightBiases(insights)})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	det := &InsightDetector{Insights: insights}
	// Build a display containing exactly the first insight's map.
	in := insights[0]
	b := ratingmap.Builder{DB: db}
	recs := make([]int32, db.Ratings.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	maps := b.Build(query.Description{}, recs, []ratingmap.Key{
		{Side: in.Side, Attr: in.Attr, Dim: in.Dim},
	})
	exposures := det.Exposed(ex, query.Description{}, maps)
	found := false
	for _, e := range exposures {
		if e.Target == 0 {
			found = true
			if !e.Exact {
				t.Error("insight exposures must be exact")
			}
		}
	}
	if !found {
		ok, _ := gen.VerifyInsight(db, in, 10)
		if ok {
			t.Errorf("verified insight not exposed by its own map")
		} else {
			t.Skip("insight did not survive generation at this scale")
		}
	}
	// A display on the wrong dimension must not expose it.
	wrong := b.Build(query.Description{}, recs, []ratingmap.Key{
		{Side: in.Side, Attr: in.Attr, Dim: (in.Dim + 1) % 4},
	})
	for _, e := range det.Exposed(ex, query.Description{}, wrong) {
		if e.Target == 0 {
			t.Error("wrong-dimension map must not expose the insight")
		}
	}
}

func TestRunnerModesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated study is slow")
	}
	ex, groups := studyExplorer(t)
	r := &Runner{Ex: ex, Detector: &IrregularDetector{Groups: groups}, PathLen: 7}
	means := map[core.Mode]float64{}
	for _, mode := range []core.Mode{core.UserDriven, core.RecommendationPowered, core.FullyAutomated} {
		cell, err := r.RunCell(mode, HighCS, HighDomain, 8, 99)
		if err != nil {
			t.Fatal(err)
		}
		means[mode] = cell.Mean()
		if cell.Mean() < 0 || cell.Mean() > 2 {
			t.Fatalf("%v: mean %v out of [0,2]", mode, cell.Mean())
		}
	}
	// The headline finding: guidance helps. RP must not trail UD by much.
	if means[core.RecommendationPowered]+0.3 < means[core.UserDriven] {
		t.Errorf("RP (%v) should not trail UD (%v)", means[core.RecommendationPowered], means[core.UserDriven])
	}
}

func TestRunnerOutcomeShape(t *testing.T) {
	ex, groups := studyExplorer(t)
	r := &Runner{Ex: ex, Detector: &IrregularDetector{Groups: groups}, PathLen: 4}
	subj := NewSubject(0, HighCS, HighDomain, 5)
	out, err := r.Run(subj, core.FullyAutomated)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerStepIdentified) != 4 {
		t.Fatalf("per-step log = %d entries, want 4", len(out.PerStepIdentified))
	}
	prev := 0
	for _, v := range out.PerStepIdentified {
		if v < prev {
			t.Fatal("cumulative identification must be monotone")
		}
		prev = v
	}
	if out.Identified != out.PerStepIdentified[len(out.PerStepIdentified)-1] {
		t.Fatal("final count must equal last cumulative entry")
	}
	if out.Identified > 0 && out.StepsToFirst == 0 {
		t.Fatal("StepsToFirst not recorded")
	}
}

func TestGeneratePathAndScore(t *testing.T) {
	ex, groups := studyExplorer(t)
	det := &IrregularDetector{Groups: groups}
	path, err := GeneratePath(ex, SubdexSource{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	steps := path.Steps()
	if len(steps) == 0 || len(steps) > 5 {
		t.Fatalf("path length %d", len(steps))
	}
	for _, st := range steps {
		if len(st.Maps) == 0 {
			t.Fatal("path step without maps")
		}
	}
	score := ScorePath(ex, det, steps, 10, 3)
	if score < 0 || score > float64(det.NumTargets()) {
		t.Fatalf("score %v out of range", score)
	}
	// Scoring is deterministic for a fixed seed.
	if again := ScorePath(ex, det, steps, 10, 3); again != score {
		t.Fatal("ScorePath must be deterministic per seed")
	}
}

// TestGeneratedPathIsTheAutoPilot pins that the SubDEx path of Tables 4–6,
// Figure 9 and the ablation is the product's Fully-Automated mode: the same
// selections and the same maps, step for step, as Session.Auto on a fresh
// explorer over the same database.
func TestGeneratedPathIsTheAutoPilot(t *testing.T) {
	ex, _ := studyExplorer(t)
	const n = 5
	path, err := GeneratePath(ex, SubdexSource{}, n)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewExplorer(ex.DB, ex.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(fresh, core.FullyAutomated, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := sess.Auto(n)
	if err != nil {
		t.Fatal(err)
	}
	got := path.Steps()
	if len(got) != n || len(auto) != n {
		t.Fatalf("generated path has %d steps, auto-pilot %d, want %d each", len(got), len(auto), n)
	}
	for i, st := range got {
		if !st.Desc.Equal(auto[i].Desc) {
			t.Fatalf("step %d: generated path at %s, auto-pilot at %s", i+1, st.Desc, auto[i].Desc)
		}
		if !slices.Equal(st.Digests, auto[i].Digests) {
			t.Fatalf("step %d at %s: generated path shows %v, auto-pilot %v", i+1, st.Desc, st.Digests, auto[i].Digests)
		}
	}
}

func TestBaselineSources(t *testing.T) {
	ex, _ := studyExplorer(t)
	sess, res := firstStep(t, ex, query.Description{})
	for _, src := range []OpSource{
		baselines.SmartDrillDown{},
		baselines.Qagview{},
	} {
		ops, err := src.Next(ex, query.Description{}, res.Maps, sess.Seen(), 3)
		if err != nil {
			t.Fatalf("%s: %v", src.Name(), err)
		}
		if len(ops) == 0 {
			t.Fatalf("%s returned no operations", src.Name())
		}
		for _, op := range ops {
			if op.Kind != query.Filter {
				t.Errorf("%s produced non-drill-down %v", src.Name(), op.Kind)
			}
		}
	}
}

func TestRemainingSide(t *testing.T) {
	ex, groups := studyExplorer(t)
	_ = ex
	det := &IrregularDetector{Groups: groups}
	// Nothing found: both sides remain → nil.
	if s := remainingSide(det, det.NumTargets(), map[int]bool{}); s != nil {
		t.Errorf("both sides open should give nil, got %v", *s)
	}
	// First group found: the other side remains.
	found := map[int]bool{0: true}
	if s := remainingSide(det, det.NumTargets(), found); s == nil || *s != groups[1].Side {
		t.Error("single remaining side not detected")
	}
	// Everything found → nil.
	found[1] = true
	if s := remainingSide(det, det.NumTargets(), found); s != nil {
		t.Error("all found should give nil")
	}
}

func TestBreadthTaskRollsUp(t *testing.T) {
	// With BreadthTask set, guided subjects must not end sessions at deep
	// selections: the policy rolls up whenever the selection has ≥2 pairs.
	ex, groups := studyExplorer(t)
	r := &Runner{Ex: ex, Detector: &IrregularDetector{Groups: groups},
		PathLen: 6, BreadthTask: true}
	subj := NewSubject(1, HighCS, HighDomain, 11)
	out, err := r.Run(subj, core.RecommendationPowered)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerStepIdentified) != 6 {
		t.Fatalf("steps = %d", len(out.PerStepIdentified))
	}
}

// visitLog is a Detector that records every selection it is shown: the
// path a subject walked.
type visitLog struct {
	*IrregularDetector
	path []string
}

func (v *visitLog) Exposed(ex *core.Explorer, desc query.Description, maps []*ratingmap.RatingMap) []Exposure {
	v.path = append(v.path, desc.String())
	for _, s := range desc.Selectors() {
		if s.Value == dataset.MissingLabel {
			v.path = append(v.path, "BINDS MISSING")
		}
	}
	return v.IrregularDetector.Exposed(ex, desc, maps)
}

// TestRunnerOnBlankCells: over a Scenario I database with a fifth of its
// atomic cells blank, Runner.Run walks the same paths to the same outcome
// twice, and no subject move binds the missing value.
func TestRunnerOnBlankCells(t *testing.T) {
	db, err := gen.Movielens(gen.Config{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := gen.PlantIrregularGroups(db, 42, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.RecSampleSize = 500
	ex, err := core.NewExplorer(datasettest.WithMissingCells(t, db, 0.2, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode core.Mode, id int) (*Outcome, []string) {
		log := &visitLog{IrregularDetector: &IrregularDetector{Groups: groups}}
		r := &Runner{Ex: ex, Detector: log, PathLen: 7}
		out, err := r.Run(NewSubject(id, LowCS, LowDomain, 3), mode)
		if err != nil {
			t.Fatal(err)
		}
		return out, log.path
	}
	for _, mode := range []core.Mode{core.UserDriven, core.RecommendationPowered} {
		for id := 0; id < 12; id++ {
			out, path := run(mode, id)
			again, pathAgain := run(mode, id)
			if !reflect.DeepEqual(out, again) || !slices.Equal(path, pathAgain) {
				t.Errorf("%v subject %d: two runs differ:\n  %+v %q\n  %+v %q", mode, id, out, path, again, pathAgain)
			}
			if slices.Contains(path, "BINDS MISSING") {
				t.Errorf("%v subject %d: a move binds the missing value: %q", mode, id, path)
			}
		}
	}
}
