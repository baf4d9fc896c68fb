// Package goleak enforces the goroutine-lifecycle discipline PR 2's
// anytime/degradation design rests on: in the packages that own
// long-lived work (internal/engine, internal/server,
// internal/sessionstore, internal/workload), every spawned goroutine
// must have a provable way to stop. A goroutine nobody joins and
// nothing can cancel outlives its request, holds its captures, and —
// the PR 2 incident class — keeps consuming engine time after the
// deadline already degraded the answer it was computing for.
//
// A `go` statement is accepted when the spawned body (a function
// literal, scanned directly, or a named function, resolved through its
// summary — local or imported via facts, closed over callees) is:
//
//   - joined: it calls Done on a sync.WaitGroup that some function in
//     the package Waits on (matched by field/package-var class, or by
//     source expression for function-local groups — the
//     `var wg sync.WaitGroup … go func() { defer wg.Done() }() …
//     wg.Wait()` shard pattern);
//   - ctx-cancellable: it observes a context.Context's Done() or
//     Err(), directly or through any function it calls (the summary
//     closure makes `go func() { runUser(ctx, …) }()` provable in one
//     hop, even when runUser lives in another package);
//   - stop-channel-cancellable: it receives from or selects on a
//     channel (field, package var, or local) that the package closes —
//     the server's janitor/Close pattern.
//
// Everything else needs `//subdex:goleak <reason>` on the go
// statement; an empty reason is itself a finding, which is how CI
// rejects undocumented suppressions.
//
// Summaries are computed for *every* package and exported as facts;
// findings are reported only in the scoped packages. The analysis is
// necessarily a may-analysis: it proves the existence of a stop
// mechanism, not that every path uses it.
package goleak

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"subdex/internal/analysis/framework"
)

// Analyzer is the goleak check.
var Analyzer = &framework.Analyzer{
	Name:      "goleak",
	Doc:       "goroutines in internal/{engine,server,sessionstore,workload} must be joined via WaitGroup, ctx-cancellable, or stopped by a channel the package closes",
	Run:       run,
	UsesFacts: true,
}

// scopedPkgs are the package-path suffixes where unaccounted
// goroutines are findings.
var scopedPkgs = []string{"internal/engine", "internal/server", "internal/sessionstore", "internal/workload"}

// ctxToken marks ctx-cancellability in the stops closure (it composes
// through calls exactly like a stop-channel class, so one Closure pass
// carries both).
const ctxToken = "ctx"

// pkgFact is the per-package fact: closed per-function summaries and
// the channel classes the package closes.
type pkgFact struct {
	Funcs  map[string]funcSummary `json:"funcs,omitempty"`
	Closes []string               `json:"closes,omitempty"`
}

// funcSummary is what a spawner needs to know about a spawned
// function.
type funcSummary struct {
	// Stops holds the stop-channel classes the function receives from
	// or selects on, plus the ctx token when it observes a context —
	// closed over its callees.
	Stops []string `json:"stops,omitempty"`
	// Dones holds the WaitGroup keys the function directly calls Done
	// on (not closed: a join is only credible one level deep).
	Dones []string `json:"dones,omitempty"`
}

func run(pass *framework.Pass) error {
	external := make(map[string]funcSummary)
	factCloses := make(map[string]bool)
	for _, pf := range pass.ImportedFacts() {
		var fact pkgFact
		if err := json.Unmarshal(pf.Fact, &fact); err != nil {
			continue
		}
		for key, s := range fact.Funcs {
			external[key] = s
		}
		for _, c := range fact.Closes {
			factCloses[c] = true
		}
	}

	bodies := framework.FuncBodies(pass)

	// Pass 1: direct per-function properties, package-wide closes and
	// WaitGroup Waits.
	direct := make([]bodyProps, len(bodies))
	closes := make(map[string]bool)
	waits := make(map[string]bool)
	seeds := make(map[string][]string)
	calls := make(map[string][]string)
	for i, fb := range bodies {
		direct[i] = scanBodyProps(pass, fb.Body)
		for _, c := range direct[i].closes {
			closes[c] = true
		}
		for _, w := range direct[i].waits {
			waits[w] = true
		}
		if fb.Key != "" {
			seeds[fb.Key] = append([]string{}, direct[i].stops...)
			calls[fb.Key] = direct[i].calls
		}
	}
	for c := range factCloses {
		closes[c] = true
	}

	// Pass 2: close the stop/ctx relation over the call graph.
	stopsClosed := framework.Closure(seeds, calls, func(key string) []string {
		return external[key].Stops
	})
	summaryOf := func(key string) funcSummary {
		if stops, ok := stopsClosed[key]; ok {
			var dones []string
			for i, fb := range bodies {
				if fb.Key == key {
					dones = append(dones, direct[i].dones...)
				}
			}
			return funcSummary{Stops: stops, Dones: dones}
		}
		return external[key]
	}

	// Pass 3: judge every go statement in scoped packages.
	if framework.PathHasSuffix(pass.Path(), scopedPkgs...) {
		for i := range bodies {
			for _, spawn := range direct[i].spawns {
				judgeSpawn(pass, bodies, direct, spawn, summaryOf, closes, waits)
			}
		}
	}

	// Export: closed summaries with local keys stripped, class closes.
	fact := pkgFact{}
	for key, stops := range stopsClosed {
		s := funcSummary{Stops: exported(stops)}
		for i, fb := range bodies {
			if fb.Key == key {
				s.Dones = append(s.Dones, exported(direct[i].dones)...)
			}
		}
		if len(s.Stops) > 0 || len(s.Dones) > 0 {
			if fact.Funcs == nil {
				fact.Funcs = make(map[string]funcSummary)
			}
			fact.Funcs[key] = s
		}
	}
	for c := range closes {
		if !strings.HasPrefix(c, framework.LocalPrefix) {
			fact.Closes = append(fact.Closes, c)
		}
	}
	sort.Strings(fact.Closes)
	return pass.ExportFact(fact)
}

// judgeSpawn decides one go statement.
func judgeSpawn(pass *framework.Pass, bodies []framework.FuncBody, direct []bodyProps,
	spawn *ast.GoStmt, summaryOf func(string) funcSummary, closes, waits map[string]bool) {

	file := framework.FileOf(pass.Files, spawn.Pos())
	if reason, found := framework.Annotation(pass.Fset, file, spawn, "goleak"); found {
		if reason == "" {
			pass.Report(spawn.Pos(), "//subdex:goleak suppression without a reason")
		}
		return
	}

	var stops, dones []string
	resolved := false
	switch fun := ast.Unparen(spawn.Call.Fun).(type) {
	case *ast.FuncLit:
		// The literal's own body is one of bodies; merge its direct
		// properties with its callees' closed summaries.
		resolved = true
		for i, fb := range bodies {
			if fb.Lit == fun {
				stops = append(stops, direct[i].stops...)
				dones = append(dones, direct[i].dones...)
				for _, key := range direct[i].calls {
					s := summaryOf(key)
					stops = append(stops, s.Stops...)
					dones = append(dones, s.Dones...)
				}
				break
			}
		}
	default:
		if key := framework.CalleeKey(pass.TypesInfo, spawn.Call); key != "" {
			s := summaryOf(key)
			if len(s.Stops) > 0 || len(s.Dones) > 0 {
				resolved = true
				stops, dones = s.Stops, s.Dones
			}
		}
	}

	for _, s := range stops {
		if s == ctxToken || closes[s] {
			return // cancellable
		}
	}
	for _, d := range dones {
		if waits[d] {
			return // joined
		}
	}
	if resolved {
		pass.Report(spawn.Pos(), "goroutine has no join and no cancellation: not WaitGroup-joined, not ctx-cancellable, and no stop channel this package closes; join it or annotate //subdex:goleak <reason>")
	} else {
		pass.Report(spawn.Pos(), "goroutine target is not statically resolvable and declares no lifecycle; annotate //subdex:goleak <reason> or spawn a named function")
	}
}

// bodyProps are the directly observable lifecycle properties of one
// function body (never descending into nested literals).
type bodyProps struct {
	stops  []string // stop-channel classes/local keys received or selected on, plus ctxToken
	dones  []string // WaitGroup keys Done()'d (including deferred)
	waits  []string // WaitGroup keys Wait()'d
	closes []string // channel classes/local keys passed to close()
	calls  []string // resolvable callee keys
	spawns []*ast.GoStmt
}

func scanBodyProps(pass *framework.Pass, body *ast.BlockStmt) bodyProps {
	info := pass.TypesInfo
	var p bodyProps
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			p.spawns = append(p.spawns, x)
			// The spawned call's own execution is concurrent; its body
			// (literal) or summary (named) is judged at the spawn, not
			// merged into this function's properties. Arguments are
			// evaluated here, but lifecycle properties in arguments are
			// vanishingly rare; skip the subtree.
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				p.stops = append(p.stops, framework.ObjKey(info, x.X))
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					p.stops = append(p.stops, framework.ObjKey(info, x.X))
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isB := info.Uses[id].(*types.Builtin); isB && id.Name == "close" && len(x.Args) == 1 {
					p.closes = append(p.closes, framework.ObjKey(info, x.Args[0]))
					return true
				}
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if recv, name := framework.SyncMethod(info, sel); recv == "WaitGroup" {
					key := framework.ObjKey(info, sel.X)
					switch name {
					case "Done":
						p.dones = append(p.dones, key)
					case "Wait":
						p.waits = append(p.waits, key)
					}
					return true
				}
				if t := info.TypeOf(sel.X); t != nil && framework.NamedTypeIn(t, "context", "Context") {
					if sel.Sel.Name == "Done" || sel.Sel.Name == "Err" {
						p.stops = append(p.stops, ctxToken)
						return true
					}
				}
			}
			if key := framework.CalleeKey(info, x); key != "" {
				p.calls = append(p.calls, key)
			}
		}
		return true
	})
	return p
}

// exported strips package-local keys from a summary value list.
func exported(keys []string) []string {
	var out []string
	for _, k := range keys {
		if !strings.HasPrefix(k, framework.LocalPrefix) && k != "" {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
