package subdex_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestKnobCensus holds DESIGN.md "Knobs" and the configuration surface to
// one set. A knob is an exported field of an exported struct whose name
// ends in Config, Options or Limits, written pkg.Struct.Field, or a flag a
// binary defines, written "binary -name"; both are collected from the
// non-test Go under internal/ and cmd/. Every knob needs a row naming who
// sets it off its default, and every row must name a knob that exists, so
// a knob added without saying who sets it — or removed without its row —
// fails here.
func TestKnobCensus(t *testing.T) {
	code := codeKnobs(t)
	rows := designKnobs(t)
	inCode := map[string]bool{}
	for _, k := range append(code.fields, code.flags...) {
		inCode[k] = true
		if !rows[k] {
			t.Errorf("%s has no row in DESIGN.md \"Knobs\": name who sets it off its default, or remove it", k)
		}
	}
	for k := range rows {
		if !inCode[k] {
			t.Errorf("DESIGN.md \"Knobs\" has a row for %s, which no longer exists", k)
		}
	}
	t.Logf("%d structs with %d exported fields, %d flags", len(code.structs), len(code.fields), len(code.flags))
}

// knobs is the configuration surface found in the code.
type knobs struct {
	structs map[string]bool // pkg.Struct
	fields  []string        // pkg.Struct.Field
	flags   []string        // "binary -name"
}

// flagDefiners are the package-level functions of package flag that define
// a flag; the ones ending in Var take the flag's name second.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

func codeKnobs(t *testing.T) knobs {
	t.Helper()
	k := knobs{structs: map[string]bool{}}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			// A binary is named by its directory under cmd/, a package by
			// its own directory.
			owner := filepath.Base(filepath.Dir(path))
			if root == "cmd" {
				owner = strings.Split(filepath.ToSlash(path), "/")[1]
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					name := n.Name.Name
					if !ok || !ast.IsExported(name) ||
						!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Limits")) {
						return true
					}
					k.structs[owner+"."+name] = true
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							if id.IsExported() {
								k.fields = append(k.fields, owner+"."+name+"."+id.Name)
							}
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !flagDefiners[sel.Sel.Name] {
						return true
					}
					if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
						return true
					}
					at := 0
					if strings.HasSuffix(sel.Sel.Name, "Var") {
						at = 1
					}
					lit, ok := n.Args[at].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Errorf("%s: flag.%s names its flag with something other than a string literal", fset.Position(n.Pos()), sel.Sel.Name)
						return true
					}
					name, _ := strconv.Unquote(lit.Value)
					k.flags = append(k.flags, owner+" -"+name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// designKnobs reads the first cell of every row of DESIGN.md's "Knobs"
// table: the knob, in backquotes.
func designKnobs(t *testing.T) map[string]bool {
	t.Helper()
	rows := map[string]bool{}
	for _, line := range strings.Split(docSection(t, "DESIGN.md", "## Knobs"), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, " | ")
		knob := strings.Trim(cells[0], "| `")
		if len(cells) < 4 || slices.Contains(cells[1:], "") {
			t.Errorf("DESIGN.md \"Knobs\" row %s: want the knob, who sets it, what that run reproduces and the verdict", knob)
		}
		if rows[knob] {
			t.Errorf("DESIGN.md \"Knobs\" has two rows for %s", knob)
		}
		rows[knob] = true
	}
	return rows
}
