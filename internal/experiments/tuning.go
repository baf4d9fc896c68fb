package experiments

import (
	"fmt"

	"subdex/internal/core"
	"subdex/internal/ratingmap"
	"subdex/internal/study"
)

// Table5 reproduces the utility/diversity trade-off: Fully-Automated paths
// of 7 steps with k=3 under l ∈ {1 (utility-only), 2, 3, diversity-only},
// reporting the number of distinct grouping attributes shown, the total
// utility, and the average per-step pairwise diversity.
func Table5(p Params) ([]Table, error) {
	variants := []struct {
		name          string
		l             int
		diversityOnly bool
	}{
		{"Utility-Only (l=1)", 1, false},
		{"l=2", 2, false},
		{"l=3", 3, false},
		{"Diversity-Only", 3, true},
	}
	datasets := []string{"Movielens", "Yelp"}
	var results [4][2]core.PathSummary // variant, dataset
	for di, ds := range datasets {
		// Fix the next-action operations (the paper generates the path with
		// the Fully-Automated mode once), then replay the same selections
		// under each variant so only map selection differs.
		db, _, err := scenarioI(ds, p)
		if err != nil {
			return nil, err
		}
		ex, err := core.NewExplorer(db, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		path, err := study.GeneratePath(ex, study.SubdexSource{}, scenarioIPathLen)
		if err != nil {
			return nil, err
		}
		for vi, v := range variants {
			cfg := core.DefaultConfig()
			cfg.L = v.l
			cfg.DiversityOnly = v.diversityOnly
			vex, err := core.NewExplorer(db, cfg)
			if err != nil {
				return nil, err
			}
			replay, err := study.ReplayPath(vex, path.Steps())
			if err != nil {
				return nil, err
			}
			results[vi][di] = replay.Summarize()
		}
	}
	t := Table{
		Title:  "Table 5: Utility and diversity across the pruning-diversity factor l",
		Header: []string{"Variant", "Dataset", "#attributes", "utility", "diversity"},
	}
	for vi, v := range variants {
		for di, ds := range datasets {
			s := results[vi][di]
			t.Rows = append(t.Rows, []string{v.name, ds, fmt.Sprint(s.DistinctAttributes),
				fmt.Sprintf("%.1f", s.TotalUtility), fmt.Sprintf("%.3f", s.AvgDiversity)})
		}
	}
	return []Table{t}, nil
}

// Fig9 reproduces the rating-dimension balance experiment on Yelp (4
// dimensions): the number of displayed rating maps per dimension over a
// Fully-Automated path, with and without the dimension-weighted utility of
// Equation 1.
func Fig9(p Params) ([]Table, error) {
	t := Table{
		Title:  "Figure 9: Rating maps per dimension, with vs without dimension weights (Yelp)",
		Header: []string{"Variant", "overall", "food", "service", "ambiance"},
	}
	// Fix the path once, then replay under both weighting variants.
	db, _, err := scenarioI("Yelp", p)
	if err != nil {
		return nil, err
	}
	base, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	path, err := study.GeneratePath(base, study.SubdexSource{}, scenarioIPathLen)
	if err != nil {
		return nil, err
	}
	for _, weighted := range []bool{true, false} {
		cfg := core.DefaultConfig()
		cfg.Engine.Utility.DisableDimensionWeights = !weighted
		ex, err := core.NewExplorer(db, cfg)
		if err != nil {
			return nil, err
		}
		replay, err := study.ReplayPath(ex, path.Steps())
		if err != nil {
			return nil, err
		}
		sum := replay.Summarize()
		row := []string{"with DW weights"}
		if !weighted {
			row[0] = "without weights"
		}
		for d := 0; d < 4; d++ {
			row = append(row, fmt.Sprint(sum.MapsPerDimension[d]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Ablation reproduces the §5.2.3 "Utility criteria" study: Fully-Automated
// paths generated with single-criterion utilities and with the average
// aggregation, scored on the Scenario I task, against the paper's finding
// that every variant is inferior to the max-of-all-criteria utility.
func Ablation(p Params) ([]Table, error) {
	t := Table{
		Title:  "§5.2.3 ablation: utility-criteria variants (avg # identified irregular groups)",
		Header: []string{"Utility variant", "Movielens", "Yelp"},
	}
	scores := make([][2]float64, len(ablationVariants))
	for di, ds := range []string{"Movielens", "Yelp"} {
		db, groups, err := scenarioI(ds, p)
		if err != nil {
			return nil, err
		}
		det := &study.IrregularDetector{Groups: groups}
		for vi, v := range ablationVariants {
			cfg := studyConfig()
			v.mut(&cfg)
			ex, err := core.NewExplorer(db, cfg)
			if err != nil {
				return nil, err
			}
			path, err := study.GeneratePath(ex, study.SubdexSource{}, scenarioIPathLen)
			if err != nil {
				return nil, err
			}
			scores[vi][di] = study.ScorePath(ex, det, path.Steps(), p.Subjects, p.Seed+1500)
		}
	}
	for vi, v := range ablationVariants {
		t.Rows = append(t.Rows, []string{v.name, fmt.Sprintf("%.2f", scores[vi][0]), fmt.Sprintf("%.2f", scores[vi][1])})
	}
	return []Table{t}, nil
}

// ablationVariants are the utility configurations Ablation compares, each a
// change to studyConfig.
var ablationVariants = []struct {
	name string
	mut  func(*core.Config)
}{
	{"max of all criteria (paper)", func(c *core.Config) {}},
	{"average of all criteria", func(c *core.Config) {
		c.Engine.Utility.Aggregation = ratingmap.AggAvg
	}},
	{"conciseness only", func(c *core.Config) {
		c.Engine.Utility.Aggregation = ratingmap.AggSingle
		c.Engine.Utility.Single = ratingmap.Conciseness
	}},
	{"agreement only", func(c *core.Config) {
		c.Engine.Utility.Aggregation = ratingmap.AggSingle
		c.Engine.Utility.Single = ratingmap.Agreement
	}},
	{"self-peculiarity only", func(c *core.Config) {
		c.Engine.Utility.Aggregation = ratingmap.AggSingle
		c.Engine.Utility.Single = ratingmap.PecSelf
	}},
	{"global-peculiarity only", func(c *core.Config) {
		c.Engine.Utility.Aggregation = ratingmap.AggSingle
		c.Engine.Utility.Single = ratingmap.PecGlobal
	}},
	{"KL peculiarity (§4.1 alternative)", func(c *core.Config) {
		c.Engine.Utility.Peculiarity = ratingmap.PecKL
	}},
}
