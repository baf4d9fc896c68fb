package subdex_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"subdex/internal/experiments"
)

// The size limits of the documents that grow with every change: README.md
// says what the system does and points at DESIGN.md for how, DESIGN.md
// keeps the design, and the measurements and the history behind it live
// in EXPERIMENTS.md; a CHANGES.md entry is one paragraph, and the full
// account is EXPERIMENTS.md "PR n".
const (
	maxReadmeLines     = 700
	maxDesignLines     = 800
	maxChangesLineSize = 1500 // bytes, an upper bound on characters
	maxPRSectionLines  = 350  // lines of one "### PR n" section of EXPERIMENTS.md
)

// TestDocsStayReadable fails when README.md passes maxReadmeLines lines,
// DESIGN.md passes maxDesignLines lines, a CHANGES.md line passes
// maxChangesLineSize or a "### PR n" section of EXPERIMENTS.md passes
// maxPRSectionLines.
func TestDocsStayReadable(t *testing.T) {
	for _, doc := range []struct {
		name, where string
		max         int
	}{
		{"README.md", "point at DESIGN.md instead of repeating it", maxReadmeLines},
		{"DESIGN.md", "move measurements and history to EXPERIMENTS.md", maxDesignLines},
	} {
		raw, err := os.ReadFile(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(raw), "\n"); n > doc.max {
			t.Errorf("%s has %d lines, over %d: %s", doc.name, n, doc.max, doc.where)
		}
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(changes), "\n") {
		if len(line) > maxChangesLineSize {
			t.Errorf("CHANGES.md:%d is %d bytes, over %d: keep one paragraph and move the rest to EXPERIMENTS.md under its PR", i+1, len(line), maxChangesLineSize)
		}
	}
	expDoc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	// A section runs to the next heading of its level or a higher one.
	section, start := "", 0
	lines := strings.Split(string(expDoc), "\n")
	for i, line := range append(lines, "# end") {
		if !strings.HasPrefix(line, "# ") && !strings.HasPrefix(line, "## ") && !strings.HasPrefix(line, "### ") {
			continue
		}
		if n := i - start; section != "" && n > maxPRSectionLines {
			t.Errorf("EXPERIMENTS.md:%d %q has %d lines, over %d: keep the evidence a reader needs and cut the rest", start+1, section, n, maxPRSectionLines)
		}
		section, start = "", i
		if strings.HasPrefix(line, "### PR ") {
			section = line
		}
	}
}

// TestExperimentIndexIsTheRegistry holds the Id column of DESIGN.md
// "Per-experiment index" equal, in order, to experiments.All(): the ids
// `sdebench -list` prints and `-run` accepts.
func TestExperimentIndexIsTheRegistry(t *testing.T) {
	var registry, index []string
	for _, e := range experiments.All() {
		registry = append(registry, e.ID)
	}
	for _, line := range strings.Split(docSection(t, "DESIGN.md", "## Per-experiment index"), "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Id |") {
			continue
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " |")
		index = append(index, id)
	}
	for _, id := range registry {
		if !slices.Contains(index, id) {
			t.Errorf("experiment %s has no row in DESIGN.md \"Per-experiment index\"", id)
		}
	}
	for _, id := range index {
		if !slices.Contains(registry, id) {
			t.Errorf("DESIGN.md \"Per-experiment index\" has a row for %s, which experiments.All() does not have", id)
		}
	}
	if !t.Failed() && !slices.Equal(index, registry) {
		t.Errorf("DESIGN.md \"Per-experiment index\" lists %v; experiments.All() is %v", index, registry)
	}
}

// TestAnalyzerDocsAreTheDriver holds README "Static analysis" and DESIGN.md
// "Invariants as analyzers" to the analyzers cmd/subdexvet registers: one
// README bullet and one row of the analyzer table (the section's first) per
// analyzer, in the driver's order, and no bullet or row for anything else.
func TestAnalyzerDocsAreTheDriver(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "cmd/subdexvet/main.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	// The registered list is the composite literal main hands framework.Main;
	// each element is pkg.Analyzer, and each analyzer is named for its package.
	var driver []string
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, elt := range lit.Elts {
			if sel, ok := elt.(*ast.SelectorExpr); ok && sel.Sel.Name == "Analyzer" {
				if pkg, ok := sel.X.(*ast.Ident); ok {
					driver = append(driver, pkg.Name)
				}
			}
		}
		return false
	})
	if len(driver) == 0 {
		t.Fatal("cmd/subdexvet/main.go registers no pkg.Analyzer")
	}
	bullet := regexp.MustCompile(`^\* \*\*([a-z]+)\*\* `)
	var readme []string
	for _, line := range strings.Split(docSection(t, "README.md", "## Static analysis"), "\n") {
		if m := bullet.FindStringSubmatch(line); m != nil {
			readme = append(readme, m[1])
		}
	}
	row := regexp.MustCompile(`^\| \*\*([a-z]+)\*\* \|`)
	var design []string
	inTable := false
	for _, line := range strings.Split(docSection(t, "DESIGN.md", "## Invariants as analyzers"), "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break // the analyzer table is the section's first
			}
			continue
		}
		inTable = true
		if m := row.FindStringSubmatch(line); m != nil {
			design = append(design, m[1])
		}
	}
	for _, doc := range []struct {
		where string
		names []string
	}{
		{`README.md "Static analysis" bullets`, readme},
		{`DESIGN.md "Invariants as analyzers" rows`, design},
	} {
		if !slices.Equal(doc.names, driver) {
			t.Errorf("%s name %v; cmd/subdexvet registers %v", doc.where, doc.names, driver)
		}
	}
}

// docSection returns the text of file under heading, up to the next
// heading of the same or a higher level.
func docSection(t *testing.T, file, heading string) string {
	t.Helper()
	doc, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("%s has no %q section", file, heading)
	}
	level, _, _ := strings.Cut(heading, " ")
	if end := strings.Index(section, "\n"+level+" "); end >= 0 {
		section = section[:end]
	}
	return section
}

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated §5 blocks from a fresh run")

// sdebenchBlock is one generated block of EXPERIMENTS.md: a line holding
// the sdebench command, then a blank line, then what that command prints,
// up to the end marker.
var sdebenchBlock = regexp.MustCompile("(?ms)^`sdebench ([^`\n]*)`:\n\n(.*?)\n<!-- /sdebench -->$")

// TestExperimentsDocIsTheRun holds EXPERIMENTS.md's §5 to the code. Every
// block after a "`sdebench …`:" line is rerun at that command's parameters
// and must be what sdebench prints for it, byte for byte; of a Figure 10 /
// 11 block, whose cells are wall-clock times, only the titles, headers,
// notes and row labels are compared. Every experiment needs a block, and
// the shape claims EXPERIMENTS.md marks as matching the paper are asserted
// on the same tables. -update rewrites the blocks from the run:
//
//	go test -run TestExperimentsDocIsTheRun -update .
func TestExperimentsDocIsTheRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the deterministic experiments take minutes on one core; under -race they pass the race leg's timeout")
	}
	if testing.Short() {
		t.Skip("reruns every §5 experiment")
	}
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	blocks := sdebenchBlock.FindAllStringSubmatchIndex(doc, -1)
	fresh := make([]string, len(blocks))
	covered := map[string]bool{}
	t.Run("sdebench", func(t *testing.T) {
		for i, m := range blocks {
			command, printed := doc[m[2]:m[3]], doc[m[4]:m[5]]
			e, p, err := parseSdebench(command)
			if err != nil {
				t.Errorf("EXPERIMENTS.md `sdebench %s`: %v", command, err)
				continue
			}
			covered[e.ID] = true
			t.Run(command, func(t *testing.T) {
				t.Parallel()
				tables, err := e.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				fresh[i] = experiments.Render(tables)
				got, want := fresh[i], printed
				if strings.HasPrefix(e.ID, "fig10") || strings.HasPrefix(e.ID, "fig11") { // timings
					got, want = timingLabels(got), timingLabels(want)
				}
				if got != want && !*update {
					t.Errorf("EXPERIMENTS.md's block is not what `sdebench %s` prints (rerun with -update):\n%s", command, firstDiff(want, got))
				}
				if claim := shapeClaims[e.ID]; claim != nil {
					claim(t, tables)
				}
			})
		}
	})
	for _, e := range experiments.All() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no generated block in EXPERIMENTS.md", e.ID)
		}
	}
	if !*update {
		return
	}
	for i := len(blocks) - 1; i >= 0; i-- {
		if fresh[i] != "" {
			doc = doc[:blocks[i][4]] + fresh[i] + doc[blocks[i][5]:]
		}
	}
	if err := os.WriteFile("EXPERIMENTS.md", []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
}

// parseSdebench reads a block's command line as sdebench's flags do, with
// the same defaults: the experiment it runs and at which point.
func parseSdebench(command string) (experiments.Experiment, experiments.Params, error) {
	fs := flag.NewFlagSet("sdebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	id := fs.String("run", "", "")
	var p experiments.Params
	fs.Float64Var(&p.Scale, "scale", experiments.DefaultScale, "")
	fs.Int64Var(&p.Seed, "seed", experiments.DefaultSeed, "")
	fs.IntVar(&p.Subjects, "subjects", experiments.DefaultSubjects, "")
	if err := fs.Parse(strings.Fields(command)); err != nil {
		return experiments.Experiment{}, p, err
	}
	e, ok := experiments.Lookup(*id)
	if !ok || fs.NArg() > 0 {
		return e, p, fmt.Errorf("want -run <one experiment id> and flags only")
	}
	return e, p, nil
}

// timingLabels keeps what a Figure 10 / 11 block says besides its times:
// titles, headers, notes and the first two cells — scheme and swept value
// — of every row.
func timingLabels(block string) string {
	lines := strings.Split(block, "\n")
	body := false
	for i, line := range lines {
		if body && strings.HasPrefix(line, "| ") {
			cells := strings.SplitN(line, " | ", 3)
			lines[i] = cells[0] + " | " + cells[1]
		}
		body = strings.HasPrefix(line, "|---") || (body && strings.HasPrefix(line, "| "))
	}
	return strings.Join(lines, "\n")
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d of the block:\n  document: %s\n  run:      %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("the document has %d lines, the run %d", len(w), len(g))
}

// shapeClaims are the claims EXPERIMENTS.md marks "Shape match", as
// predicates over the tables of the run the block was compared against.
var shapeClaims = map[string]func(*testing.T, []experiments.Table){
	// Table 4: SubDEx beats SDD and Qagview on both datasets.
	"table4": func(t *testing.T, tables []experiments.Table) {
		rows := tables[0].Rows
		for col, ds := range []string{"Movielens", "Yelp"} {
			for _, baseline := range rows[1:] {
				if subdex, other := cellValue(t, rows[0][col+1]), cellValue(t, baseline[col+1]); subdex <= other {
					t.Errorf("table4 %s: SubDEx %.2f does not beat %s %.2f", ds, subdex, baseline[0], other)
				}
			}
		}
	},
	// Figure 7, scenario I on Movielens: RP > FA ≥ UD in every domain
	// column.
	"fig7": func(t *testing.T, tables []experiments.Table) {
		for col, domain := range tables[0].Header[1:] {
			by := map[string][]float64{}
			for _, row := range tables[0].Rows {
				for _, part := range strings.Split(row[col+1], ", ") {
					mode, value, _ := strings.Cut(part, " ")
					by[mode] = append(by[mode], cellValue(t, value))
				}
			}
			if !(slices.Min(by["RP"]) > slices.Max(by["FA"]) && slices.Min(by["FA"]) >= slices.Max(by["UD"])) {
				t.Errorf("fig7 scenario I Movielens, %s: want RP > FA ≥ UD, got %v", domain, by)
			}
		}
	},
	// Figure 8, scenario I: RP ≥ UD at every step.
	"fig8": func(t *testing.T, tables []experiments.Table) {
		ud, rp := tables[0].Rows[0], tables[0].Rows[1]
		for s := 1; s < len(ud); s++ {
			if cellValue(t, rp[s]) < cellValue(t, ud[s]) {
				t.Errorf("fig8 scenario I, step %d: RP %s < UD %s", s, rp[s], ud[s])
			}
		}
	},
	// Figure 9: the maps spread over the dimensions more evenly with DW
	// weights than without.
	"fig9": func(t *testing.T, tables []experiments.Table) {
		spread := func(row []string) float64 {
			var n []float64
			for _, c := range row[1:] {
				n = append(n, cellValue(t, c))
			}
			return slices.Max(n) - slices.Min(n)
		}
		if with, without := spread(tables[0].Rows[0]), spread(tables[0].Rows[1]); with >= without {
			t.Errorf("fig9: per-dimension spread %v with DW weights, %v without", with, without)
		}
	},
}

// cellValue is the number a cell starts with.
func cellValue(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
	if err != nil {
		t.Fatalf("cell %q does not start with a number", cell)
	}
	return v
}
