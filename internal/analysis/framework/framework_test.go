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
// trailing), the empty-reason form, and the absent case.
func TestAnnotation(t *testing.T) {
	src := `package p

func f(m map[int]int) {
	//subdex:orderinsensitive pure count
	for range m {
	}
	for range m { //subdex:orderinsensitive trailing reason
	}
	for range m { //subdex:orderinsensitive
	}
	for range m {
	}
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var loops []*ast.RangeStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			loops = append(loops, r)
		}
		return true
	})
	if len(loops) != 4 {
		t.Fatalf("expected 4 range statements, got %d", len(loops))
	}
	want := []struct {
		reason string
		found  bool
	}{
		{"pure count", true},
		{"trailing reason", true},
		{"", true},
		{"", false},
	}
	for i, w := range want {
		reason, found := Annotation(fset, file, loops[i], "orderinsensitive")
		if reason != w.reason || found != w.found {
			t.Errorf("loop %d: Annotation = (%q, %v), want (%q, %v)", i, reason, found, w.reason, w.found)
		}
	}
}
