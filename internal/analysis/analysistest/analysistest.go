// Package analysistest runs framework analyzers over GOPATH-style
// fixture trees and checks their findings against `// want` comments —
// the same fixture convention as golang.org/x/tools/go/analysis/analysistest,
// reimplemented on the standard library because x/tools is not vendored.
//
// A fixture lives under testdata/src/<importpath>/ and annotates the
// lines expected to be flagged:
//
//	reg.Counter("http_requests", "...") // want `not of the form subdex_`
//
// The backquoted (or double-quoted) string is a regexp that must match
// the diagnostic message reported on that line; several expectations may
// follow one `// want`. Lines without a want comment must be clean, and
// every want must be matched — both directions are test failures.
//
// Fixture imports resolve first against testdata/src (so a fixture
// package "obs" can stand in for subdex/internal/obs — analyzers match
// package paths by suffix), then against the standard library via the
// source importer.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"subdex/internal/analysis/framework"
)

// Run analyzes the fixture packages (import paths under dir/src) with a,
// in the given order — facts flow from earlier packages to later ones —
// and reports every mismatch between actual diagnostics and // want
// expectations as test errors.
func Run(t *testing.T, dir string, a *framework.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &fixtureLoader{
		fset:  fset,
		root:  filepath.Join(dir, "src"),
		cache: make(map[string]*loaded),
		std:   importer.ForCompiler(fset, "source", nil),
	}
	store := make(framework.FactStore)
	for _, path := range pkgPaths {
		lp, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading fixture %q: %v", path, err)
		}
		diags, err := framework.Analyze(lp.pkg, []*framework.Analyzer{a}, store)
		if err != nil {
			t.Fatalf("analyzing fixture %q: %v", path, err)
		}
		checkWants(t, fset, lp.pkg.Files, diags)
	}
}

// loaded pairs a framework package with its types package for reuse as
// an import of later fixtures.
type loaded struct {
	pkg   *framework.Package
	types *types.Package
}

// fixtureLoader resolves fixture import paths under root and everything
// else through the stdlib source importer. It implements types.Importer
// so fixtures can import each other.
type fixtureLoader struct {
	fset  *token.FileSet
	root  string
	cache map[string]*loaded
	std   types.Importer
}

func (ld *fixtureLoader) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(ld.root, path)); err == nil && st.IsDir() {
		lp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return lp.types, nil
	}
	return ld.std.Import(path)
}

func (ld *fixtureLoader) load(path string) (*loaded, error) {
	if lp, ok := ld.cache[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(ld.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := framework.NewTypesInfo()
	conf := types.Config{Importer: ld, Error: func(error) {}}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	lp := &loaded{
		pkg:   &framework.Package{Fset: ld.fset, Files: files, Types: tpkg, TypesInfo: info},
		types: tpkg,
	}
	ld.cache[path] = lp
	return lp, nil
}

// expectation is one // want regexp on one line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	hit  bool
}

// wantRx pulls the quoted regexps off a want comment:
// `// want `re1` "re2" ...`.
var wantRx = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []framework.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(c.Text[i+len("// want "):], -1) {
					text := m[1]
					if text == "" {
						text = m[2]
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, text, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, text: text})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Position.Filename && w.line == d.Position.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", d.Position, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.text)
		}
	}
}
