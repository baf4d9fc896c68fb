// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each experiment is a named, self-contained function that
// generates its workload, runs the system, and returns the rows or series
// the paper reports as Tables, with the paper's values beside them where
// the paper prints numbers. Render writes tables as markdown: `cmd/sdebench`
// prints exactly that, and EXPERIMENTS.md holds it byte for byte (the root
// TestExperimentsDocIsTheRun reruns it). The per-experiment index lives in
// DESIGN.md.
//
// Scale: Params.Scale shrinks the synthetic datasets; Scale 1.0 reproduces
// the paper's dataset sizes (Table 2). EXPERIMENTS.md is generated at the
// documented point, DefaultScale / DefaultSeed / DefaultSubjects, which is
// also what `cmd/sdebench` runs when given no flags.
package experiments

import (
	"fmt"
	"strings"

	"subdex/internal/dataset"
	"subdex/internal/gen"
)

// The documented point: EXPERIMENTS.md's §5 tables are the run at these
// values, and sdebench's flags default to them.
const (
	DefaultScale    = 0.2
	DefaultSeed     = 1
	DefaultSubjects = 30
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
}

// Table is one table of an experiment's result, as data.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Note is printed under the table: a statistic over its cells.
	Note string
}

// Render writes tables as markdown, each a bold title, the table and its
// note: the bytes sdebench prints and EXPERIMENTS.md holds.
func Render(tables []Table) string {
	var b strings.Builder
	row := func(cells []string) {
		for _, c := range cells {
			b.WriteString("| " + strings.ReplaceAll(c, "|", `\|`) + " ")
		}
		b.WriteString("|\n")
	}
	for i, t := range tables {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
		row(t.Header)
		b.WriteString(strings.Repeat("|---", len(t.Header)) + "|\n")
		for _, r := range t.Rows {
			row(r)
		}
		if t.Note != "" {
			fmt.Fprintf(&b, "\n%s\n", t.Note)
		}
	}
	return b.String()
}

// Experiment is one runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) ([]Table, error)
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

// Table2 returns the dataset statistics of Table 2 for the three generated
// databases at the requested scale, next to the paper's full-scale values.
func Table2(p Params) ([]Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Table 2: Examined Datasets (generated at scale %.3g)", p.Scale),
		Header: []string{"Dataset", "#Atts", "Max#Vals", "#Dims", "|R|", "|U|", "|I|", "paper"},
	}
	for _, ds := range []struct {
		generate func(gen.Config) (*dataset.DB, error)
		paper    string
	}{
		{gen.Movielens, "12, 29, 1, 100000, 943, 1682"},
		{gen.Yelp, "24, 13, 4, 200500, 150318, 93"},
		{gen.Hotels, "8, 62, 4, 35912, 15493, 879"},
	} {
		db, err := ds.generate(gen.Config{Seed: p.Seed, Scale: p.Scale})
		if err != nil {
			return nil, err
		}
		s := db.Stats()
		row := []string{s.Name}
		for _, n := range []int{s.NumAttributes, s.MaxNumValues, s.NumDimensions, s.NumRatings, s.NumReviewers, s.NumItems} {
			row = append(row, fmt.Sprint(n))
		}
		t.Rows = append(t.Rows, append(row, ds.paper))
	}
	return []Table{t}, nil
}

// scenarioI generates a dataset, by its name in the tables, and plants its
// Scenario I irregular groups. An experiment does so once per (dataset,
// seed) and gives each configuration it compares its own core.NewExplorer
// over the one database, which no explorer writes.
func scenarioI(dsName string, p Params) (*dataset.DB, []gen.IrregularGroup, error) {
	db, err := gen.ByName(strings.ToLower(dsName), gen.Config{Seed: p.Seed, Scale: p.Scale})
	if err != nil {
		return nil, nil, err
	}
	groups, err := gen.PlantIrregularGroups(db, p.Seed+11, 1, 5)
	if err != nil {
		return nil, nil, err
	}
	return db, groups, nil
}
