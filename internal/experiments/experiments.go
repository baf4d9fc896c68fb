// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each experiment is a named, self-contained function that
// generates its workload, runs the system, and renders the same rows or
// series the paper reports. The per-experiment index lives in DESIGN.md;
// measured-vs-paper comparisons are recorded in EXPERIMENTS.md.
//
// Scale: experiments accept a Params struct whose Scale field shrinks the
// synthetic datasets; Scale 1.0 reproduces the paper's dataset sizes
// (Table 2). The defaults used by `cmd/sdebench` are chosen so the full
// suite completes in minutes on a laptop while preserving every reported
// shape.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/gen"
)

// Params carries the experiment-wide knobs.
type Params struct {
	// Scale shrinks the generated datasets (1.0 = paper size).
	Scale float64
	// Seed drives all generation and simulation.
	Seed int64
	// Subjects is the number of simulated subjects per treatment cell
	// (the paper uses 30 per cell after grouping).
	Subjects int
	// Out receives the rendered tables.
	Out io.Writer
}

func (p Params) scale() float64 {
	if p.Scale <= 0 {
		return 0.05
	}
	return p.Scale
}

func (p Params) seed() int64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

func (p Params) subjects() int {
	if p.Subjects <= 0 {
		return 30
	}
	return p.Subjects
}

// Experiment is one runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) error
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"table2", "Table 2: dataset statistics", Table2},
		{"fig7", "Figure 7: exploration guidance user study", Fig7},
		{"fig8", "Figure 8: recall vs number of steps", Fig8},
		{"table4", "Table 4: quality of next-action recommendations", Table4},
		{"table5", "Table 5: utility vs diversity across l", Table5},
		{"table6", "Table 6: utility-only vs diversity-only paths", Table6},
		{"fig9", "Figure 9: rating maps per dimension with/without DW", Fig9},
		{"ablation", "§5.2.3 ablation: utility criteria variants", Ablation},
		{"fig10a", "Figure 10(a): runtime vs database size", Fig10a},
		{"fig10b", "Figure 10(b): runtime vs number of attributes", Fig10b},
		{"fig10c", "Figure 10(c): runtime vs number of attribute values", Fig10c},
		{"fig11a", "Figure 11(a): runtime vs number of rating maps k", Fig11a},
		{"fig11b", "Figure 11(b): runtime vs number of recommendations o", Fig11b},
		{"fig11c", "Figure 11(c): runtime vs pruning-diversity factor l", Fig11c},
		{"hotels", "Extension: Scenario I guidance on Hotel Reviews", Hotels},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// newTab builds a tabwriter for aligned table output.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Table2 prints the dataset statistics of Table 2 for the three generated
// databases at the requested scale, next to the paper's full-scale values.
func Table2(p Params) error {
	header(p.Out, "Table 2: Examined Datasets (generated at scale "+fmt.Sprintf("%.3g", p.scale())+")")
	type row struct {
		db    *dataset.DB
		paper [6]int // atts, maxvals, dims, R, U, I
	}
	ml, err := gen.Movielens(gen.Config{Seed: p.seed(), Scale: p.scale()})
	if err != nil {
		return err
	}
	yp, err := gen.Yelp(gen.Config{Seed: p.seed(), Scale: p.scale()})
	if err != nil {
		return err
	}
	ht, err := gen.Hotels(gen.Config{Seed: p.seed(), Scale: p.scale()})
	if err != nil {
		return err
	}
	rows := []row{
		{ml, [6]int{12, 29, 1, 100000, 943, 1682}},
		{yp, [6]int{24, 13, 4, 200500, 150318, 93}},
		{ht, [6]int{8, 62, 4, 35912, 15493, 879}},
	}
	tw := newTab(p.Out)
	fmt.Fprintln(tw, "Dataset\t#Atts\tMax#Vals\t#Dims\t|R|\t|U|\t|I|\tpaper(|R|,|U|,|I|)")
	for _, r := range rows {
		s := r.db.Stats()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t(%d, %d, %d)\n",
			s.Name, s.NumAttributes, s.MaxNumValues, s.NumDimensions,
			s.NumRatings, s.NumReviewers, s.NumItems,
			r.paper[3], r.paper[4], r.paper[5])
	}
	return tw.Flush()
}

// buildScenarioI prepares a dataset with planted irregular groups and an
// explorer, shared by several experiments.
func buildScenarioI(dsName string, p Params, cfg core.Config) (*core.Explorer, []gen.IrregularGroup, error) {
	var db *dataset.DB
	var err error
	switch dsName {
	case "Movielens":
		db, err = gen.Movielens(gen.Config{Seed: p.seed(), Scale: p.scale()})
	case "Yelp":
		db, err = gen.Yelp(gen.Config{Seed: p.seed(), Scale: p.scale()})
	case "Hotels":
		db, err = gen.Hotels(gen.Config{Seed: p.seed(), Scale: p.scale()})
	default:
		return nil, nil, fmt.Errorf("experiments: unknown dataset %q", dsName)
	}
	if err != nil {
		return nil, nil, err
	}
	groups, err := gen.PlantIrregularGroups(db, p.seed()+11, 1, 5)
	if err != nil {
		return nil, nil, err
	}
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ex, groups, nil
}

// fmtDur renders a duration in milliseconds with 2 decimals.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
