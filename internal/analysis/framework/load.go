package framework

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (in dir, "" = cwd) with
// `go list -deps -export`, parses and type-checks every non-standard
// package from source — imports are satisfied from the build cache's
// export data, so loading needs no network and no GOPATH — and returns
// the pattern-matched packages in dependency order (a package's
// in-module imports precede it), ready for Analyze. Test files are not
// loaded: every analyzer exempts them.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json", "-deps", "-export"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	byPath := make(map[string]*listPackage)
	var order []*listPackage // go list -deps emits dependencies first
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("go list output: %v", err)
		}
		p := lp
		byPath[p.ImportPath] = &p
		order = append(order, &p)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := byPath[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	})

	var pkgs []*Package
	for _, lp := range order {
		if lp.Standard {
			continue // only module code is analyzed
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.DepOnly {
			// Not pattern-matched: its exported API reaches dependents via
			// export data; no need to re-check its source.
			continue
		}
		pkg, err := checkPackage(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one listed package.
func checkPackage(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{
		Importer: importMapper{imp: imp, importMap: lp.ImportMap},
		Error:    func(error) {}, // collect just the first via Check's return
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, TypesInfo: info}, nil
}

// importMapper applies a source-path → canonical-path import map (as
// produced by go list for vendoring) in front of an export-data importer.
type importMapper struct {
	imp       types.Importer
	importMap map[string]string
}

func (m importMapper) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	return m.imp.Import(path)
}

// Main is cmd/subdexvet's entry point: it analyzes the packages of the
// module in the current directory that match the pattern arguments
// ("./..." when there are none), or prints the analyzers' documentation
// for `subdexvet help`. Findings go to stderr; the exit status is 2 when
// there are findings, 1 on load errors, 0 when clean (the same contract as
// x/tools' checkers). It never returns.
func Main(analyzers []*Analyzer) {
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		fmt.Println("subdexvet: SubDEx project-invariant analyzers")
		fmt.Println()
		fmt.Println("usage: subdexvet [packages]")
		fmt.Println()
		for _, a := range analyzers {
			fmt.Printf("%s:\n%s\n\n", a.Name, strings.TrimSpace(a.Doc))
		}
		os.Exit(0)
	}
	pkgs, err := Load("", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "subdexvet:", err)
		os.Exit(1)
	}
	store := make(FactStore)
	exit := 0
	for _, pkg := range pkgs {
		diags, err := Analyze(pkg, analyzers, store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "subdexvet:", err)
			os.Exit(1)
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			exit = 2
		}
	}
	os.Exit(exit)
}
