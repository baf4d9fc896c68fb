package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestPathHasSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"subdex/internal/obs", "internal/obs", true},
		{"internal/obs", "internal/obs", true},
		{"obs", "internal/obs", false},
		{"subdex/internal/observability", "internal/obs", false},
		{"x/myinternal/obs", "internal/obs", false},
	}
	for _, c := range cases {
		if got := PathHasSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("PathHasSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

// TestAnnotation pins the two accepted comment placements (line above,
// trailing), the empty-reason form, the absent case, and that a marker is
// a whole word: `//subdex:ctxflowed` is not a ctxflow annotation.
func TestAnnotation(t *testing.T) {
	src := `package p

import "context"

func f() {
	//subdex:ctxflow context-free API
	_ = context.Background()

	_ = context.Background() //subdex:ctxflow trailing reason

	_ = context.Background() //subdex:ctxflow

	_ = context.Background()

	_ = context.Background() //subdex:ctxflowed x
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var calls []*ast.CallExpr
	ast.Inspect(file, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	want := []struct {
		reason string
		found  bool
	}{
		{"context-free API", true},
		{"trailing reason", true},
		{"", true},
		{"", false},
		{"", false},
	}
	if len(calls) != len(want) {
		t.Fatalf("expected %d calls, got %d", len(want), len(calls))
	}
	for i, w := range want {
		reason, found := Annotation(fset, file, calls[i], "ctxflow")
		if reason != w.reason || found != w.found {
			t.Errorf("call %d: Annotation = (%q, %v), want (%q, %v)", i, reason, found, w.reason, w.found)
		}
	}
}
