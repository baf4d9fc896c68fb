package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"subdex/internal/core"
	"subdex/internal/dataset/datasettest"
	"subdex/internal/study"
)

// tinyParams keeps experiment smoke tests fast; the real artifacts are
// regenerated by cmd/sdebench at the documented point.
func tinyParams() Params {
	return Params{Scale: 0.01, Seed: 1, Subjects: 3}
}

// run runs one experiment at tinyParams and returns its rendered tables.
func run(t *testing.T, e func(Params) ([]Table, error)) ([]Table, string) {
	t.Helper()
	tables, err := e(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	return tables, Render(tables)
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of §5 must have an experiment.
	wanted := []string{
		"table2", "fig7", "fig8", "table4", "table5", "table6",
		"fig9", "ablation", "fig10a", "fig10b", "fig10c",
		"fig11a", "fig11b", "fig11c",
	}
	for _, id := range wanted {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown id must not resolve")
	}
}

func TestRender(t *testing.T) {
	got := Render([]Table{
		{Title: "A", Header: []string{"x", "|R|"}, Rows: [][]string{{"1", "2"}}, Note: "n"},
		{Title: "B", Header: []string{"y"}},
	})
	want := "**A**\n\n| x | \\|R\\| |\n|---|---|\n| 1 | 2 |\n\nn\n\n**B**\n\n| y |\n|---|\n"
	if got != want {
		t.Errorf("Render:\n%q\nwant\n%q", got, want)
	}
}

func TestTable2Output(t *testing.T) {
	_, out := run(t, Table2)
	for _, want := range []string{"Movielens", "Yelp", "HotelReviews", "#Dims"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable5Output(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	tables, out := run(t, Table5)
	for _, want := range []string{"Utility-Only", "l=2", "l=3", "Diversity-Only"} {
		if !strings.Contains(out, want) {
			t.Errorf("table5 output missing %q:\n%s", want, out)
		}
	}
	if n := len(tables[0].Rows); n != 8 {
		t.Errorf("table5 has %d rows, want 4 variants × 2 datasets", n)
	}
}

func TestFig9Output(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	_, out := run(t, Fig9)
	if !strings.Contains(out, "with DW weights") || !strings.Contains(out, "without weights") {
		t.Errorf("fig9 output incomplete:\n%s", out)
	}
}

func TestTable4Output(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	_, out := run(t, Table4)
	for _, want := range []string{"SubDEx", "SDD", "Qagview"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 output missing %q:\n%s", want, out)
		}
	}
}

// sweepRows checks a Figure 10 / 11 table: it fails unless the table has
// the measured and simulatedHeading columns, and returns, per scheme, how
// many rows it has — every one checked to cost at least as much measured on
// one goroutine as the cost model says the same run would on its cores.
func sweepRows(t *testing.T, tables []Table) map[string]int {
	t.Helper()
	if len(tables) != 1 || !slices.Contains(tables[0].Header, simulatedHeading) {
		t.Fatalf("want one table with a %q column:\n%s", simulatedHeading, Render(tables))
	}
	rows := make(map[string]int)
	for _, r := range tables[0].Rows {
		seq, err1 := strconv.ParseFloat(r[2], 64)
		sim, err2 := strconv.ParseFloat(r[3], 64)
		if err1 != nil || err2 != nil || seq < sim {
			t.Errorf("row %q: measured %s, simulated %s", r, r[2], r[3])
		}
		scheme, _, _ := strings.Cut(r[0], " ")
		rows[scheme]++
	}
	return rows
}

func TestFig10aOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	tables, out := run(t, Fig10a)
	rows := sweepRows(t, tables)
	for _, s := range Schemes() {
		if n := rows[s.Pruning.String()]; n != 5 {
			t.Errorf("fig10a has %d rows for %s, want one per database size (5):\n%s", n, s.Pruning, out)
		}
	}
	if len(rows) != len(Schemes()) {
		t.Errorf("fig10a rows by scheme %v, want one set per scheme", rows)
	}
}

func TestFig11aOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	tables, out := run(t, Fig11a)
	if rows := sweepRows(t, tables); rows["ci+mab"] != 5 || !strings.Contains(out, "k=10") {
		t.Errorf("fig11a output incomplete:\n%s", out)
	}
}

// TestVariantsList: the four measured schemes name the paper's six §5.1
// variants, in the paper's order, each once.
func TestVariantsList(t *testing.T) {
	var cores, oneCore []string
	for _, s := range Schemes() {
		cores = append(cores, s.Cores)
		if s.OneCore != "" {
			oneCore = append(oneCore, s.OneCore)
		}
	}
	want := []string{"SubDEx", "No-Pruning", "CI Pruning", "MAB Pruning", "No Parallelism", "Naive"}
	if got := append(cores, oneCore...); !slices.Equal(got, want) {
		t.Errorf("variants %v, want the paper's %v", got, want)
	}
}

// TestExplorersShareTheDatabase pins what generating one Scenario I
// database per experiment rests on: explorers over the shared database
// leave it unchanged, and under each configuration the path generated over
// it is the path generated over a database of its own.
func TestExplorersShareTheDatabase(t *testing.T) {
	p := tinyParams()
	shared, _, err := scenarioI("Yelp", p)
	if err != nil {
		t.Fatal(err)
	}
	before := datasettest.Digest(shared)
	for _, v := range []int{0, 2} { // max of all criteria, conciseness only
		cfg := studyConfig()
		ablationVariants[v].mut(&cfg)
		var paths [2][]*core.StepResult // over the shared database, over its own
		for i := range paths {
			db := shared
			if i == 1 {
				if db, _, err = scenarioI("Yelp", p); err != nil {
					t.Fatal(err)
				}
			}
			ex, err := core.NewExplorer(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			path, err := study.GeneratePath(ex, study.SubdexSource{}, scenarioIPathLen)
			if err != nil {
				t.Fatal(err)
			}
			paths[i] = path.Steps()
		}
		name := ablationVariants[v].name
		if len(paths[0]) != len(paths[1]) {
			t.Fatalf("%s: %d steps over the shared database, %d over its own", name, len(paths[0]), len(paths[1]))
		}
		for s, st := range paths[0] {
			own := paths[1][s]
			if !st.Desc.Equal(own.Desc) || !slices.Equal(st.Digests, own.Digests) {
				t.Fatalf("%s, step %d: %s %v over the shared database, %s %v over its own",
					name, s+1, st.Desc, st.Digests, own.Desc, own.Digests)
			}
		}
	}
	if after := datasettest.Digest(shared); after != before {
		t.Fatalf("the explorers changed the shared database: digest %s, generated as %s", after, before)
	}
}
