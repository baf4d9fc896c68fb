// Package lockorder builds the global lock-acquisition graph and
// diagnoses cycles and violations of the declared locking hierarchy —
// the analyzer born from PR 7's races 3 and 4 (a WAL file closed under
// an in-flight fsync, and delete-vs-restore resurrection), both of
// which were ordering bugs between FileStore's writer mutex, its swap
// mutex, and the server's session mutex that review had to catch by
// hand.
//
// The analysis is inter-procedural over framework facts. Within each
// package, every function body is scanned in statement order
// (framework.ScanFlow) recording which mutex *classes* — all instances
// of server.(Server).mu are one class — are held at every blocking
// acquisition and every call. An acquisition of B while A is held is an
// edge A → B; a call made while A is held contributes edges A → C for
// every class C the callee may transitively acquire, resolved through
// the callee's own package fact (closed summaries, so one hop
// suffices; interface methods carry the union of their in-package
// implementations). TryLock joins the held set — a lock held is held —
// but never becomes an edge *target*, because a try-acquire cannot
// block: this is exactly why EvictIdle's s.mu → entry.mu.TryLock is
// legal while a blocking entry.mu.Lock under s.mu would not be.
//
// Two diagnostics:
//
//   - A cycle: some edge closes a loop in the global graph (union of
//     this package's edges and every imported fact's). The edge in the
//     package under analysis is reported with the full cycle path.
//   - A hierarchy violation: mutex fields and package-level mutexes may
//     declare their place in the locking order with
//     `//subdex:lockorder rank=N <reason>` on the declaration; an edge
//     from rank R1 to rank R2 with R1 >= R2 is a finding even before it
//     closes a cycle. Ranks are exported in facts, so
//     server code acquiring a sessionstore mutex is checked against
//     sessionstore's declared ranks.
//
// Escape hatch: `//subdex:lockorder <reason>` on the acquiring line
// suppresses that site's edges; the reason is mandatory (an empty one
// is itself a finding, which is what lets CI fail on undocumented
// suppressions without extra tooling).
package lockorder

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"subdex/internal/analysis/framework"
)

// Analyzer is the lockorder check.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc:  "global lock-acquisition graph: no cycles, and declared //subdex:lockorder rank=N hierarchies must be acquired in strictly increasing rank order",
	Run:  run,
}

// pkgFact is the per-package fact: closed may-acquire summaries for
// every declared function (and interface method), the acquisition edges
// observed in the package, and the ranks it declares. A later package
// sees the facts of every package analyzed before it, so the union of
// their edges is the module's graph so far.
type pkgFact struct {
	MayAcquire map[string][]string `json:"may_acquire,omitempty"`
	Edges      []factEdge          `json:"edges,omitempty"`
	Ranks      map[string]int      `json:"ranks,omitempty"`
}

type factEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// localEdge is an edge observed in this package, pinned to the source
// position that creates it.
type localEdge struct {
	from, to string
	pos      ast.Node
}

func run(pass *framework.Pass) error {
	// 1. Imported facts: merged ranks, the upstream edge set, and the
	// external may-acquire lookup.
	ranks := make(map[string]int)
	upstreamEdges := make(map[factEdge]bool)
	externalAcquire := make(map[string][]string)
	for _, pf := range pass.ImportedFacts() {
		var fact pkgFact
		if err := json.Unmarshal(pf.Fact, &fact); err != nil {
			continue
		}
		for class, r := range fact.Ranks {
			ranks[class] = r
		}
		for _, e := range fact.Edges {
			upstreamEdges[e] = true
		}
		for key, classes := range fact.MayAcquire {
			externalAcquire[key] = classes
		}
	}

	// 2. Local rank declarations.
	localRanks := collectRanks(pass)
	for class, r := range localRanks {
		ranks[class] = r
	}

	// 3. Scan every body: acquisition edges, may-acquire seeds, calls.
	seeds := make(map[string][]string)
	calls := make(map[string][]string)
	var pending []framework.FlowEvent
	for _, fb := range framework.FuncBodies(pass) {
		key := fb.Key
		if key != "" {
			// Materialize the key even for bodies with no events, so
			// Closure treats it as local.
			seeds[key] = seeds[key]
			calls[key] = calls[key]
		}
		framework.ScanFlow(pass.TypesInfo, fb.Body, func(ev framework.FlowEvent) {
			switch ev.Kind {
			case framework.FlowAcquire:
				if key != "" {
					seeds[key] = append(seeds[key], ev.Class)
				}
				pending = append(pending, ev)
			case framework.FlowTryAcquire:
				// Held-set membership only: cannot block, no edge, and
				// excluded from may-acquire (a caller holding A cannot
				// deadlock on a callee's try-acquire).
			case framework.FlowCall:
				if key != "" && ev.Key != "" {
					calls[key] = append(calls[key], ev.Key)
				}
				if len(ev.Held) > 0 && ev.Key != "" {
					pending = append(pending, ev)
				}
			}
		})
	}

	// 4. Close local summaries over the call graph and imported facts.
	mayAcquire := framework.Closure(seeds, calls, func(key string) []string {
		return externalAcquire[key]
	})
	// Interface methods summarize the union of their in-package
	// implementations, under the key dynamic call sites resolve to.
	for ikey, impls := range framework.InterfaceMethodImpls(pass.Pkg) {
		merged := make(map[string]bool)
		for _, impl := range impls {
			for _, c := range mayAcquire[impl] {
				merged[c] = true
			}
		}
		if len(merged) > 0 {
			classes := make([]string, 0, len(merged))
			for c := range merged {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			mayAcquire[ikey] = classes
		}
	}
	lookup := func(key string) []string {
		if classes, ok := mayAcquire[key]; ok {
			return classes
		}
		return externalAcquire[key]
	}

	// 5. Derive local edges from the pending events, honoring per-site
	// suppressions.
	var edges []localEdge
	seen := make(map[factEdge]bool)
	for _, ev := range pending {
		file := framework.FileOf(pass.Files, ev.Pos)
		if reason, found := framework.Annotation(pass.Fset, file, ev.Call, "lockorder"); found {
			if reason == "" {
				pass.Report(ev.Pos, "//subdex:lockorder suppression without a reason")
			}
			continue
		}
		targets := []string{ev.Class}
		if ev.Kind == framework.FlowCall {
			targets = lookup(ev.Key)
		}
		for _, held := range ev.Held {
			for _, to := range targets {
				e := factEdge{From: held, To: to}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, localEdge{from: held, to: to, pos: ev.Call})
				}
			}
		}
	}

	// 6. Hierarchy violations: both endpoints ranked, not strictly
	// increasing.
	for _, e := range edges {
		rFrom, okFrom := ranks[e.from]
		rTo, okTo := ranks[e.to]
		if okFrom && okTo && rFrom >= rTo {
			pass.Reportf(e.pos.Pos(),
				"acquires %s (rank %d) while holding %s (rank %d): //subdex:lockorder hierarchy requires strictly increasing rank",
				e.to, rTo, e.from, rFrom)
		}
	}

	// 7. Cycles in the composed graph: for each local edge f→t, a path
	// t ⇝ f in (upstream ∪ local) closes a cycle; report the local edge
	// with the full path. Self-edges (f == t) are the degenerate cycle:
	// re-acquiring a held class.
	graph := make(map[string][]string)
	addEdge := func(from, to string) {
		graph[from] = append(graph[from], to)
	}
	for e := range upstreamEdges {
		addEdge(e.From, e.To)
	}
	for _, e := range edges {
		addEdge(e.from, e.to)
	}
	for _, e := range edges {
		if e.from == e.to {
			pass.Reportf(e.pos.Pos(),
				"lock-order cycle: acquires %s while already holding it", e.from)
			continue
		}
		// When declared ranks disambiguate the cycle, only the inverted
		// side is the bug: an edge that follows the hierarchy strictly
		// is the intended order and stays quiet.
		if rFrom, okF := ranks[e.from]; okF {
			if rTo, okT := ranks[e.to]; okT && rFrom < rTo {
				continue
			}
		}
		if path := shortestPath(graph, e.to, e.from); path != nil {
			pass.Reportf(e.pos.Pos(),
				"lock-order cycle: acquiring %s while holding %s closes the cycle %s",
				e.to, e.from, strings.Join(append([]string{e.from}, path...), " -> "))
		}
	}

	// 8. Export: closed summaries, this package's edges and ranks.
	exported := pkgFact{Ranks: localRanks}
	for key, classes := range mayAcquire {
		if len(classes) == 0 {
			continue
		}
		if exported.MayAcquire == nil {
			exported.MayAcquire = make(map[string][]string)
		}
		exported.MayAcquire[key] = classes
	}
	for _, e := range edges {
		exported.Edges = append(exported.Edges, factEdge{From: e.from, To: e.to})
	}
	return pass.ExportFact(exported)
}

// collectRanks walks non-test files for `//subdex:lockorder rank=N
// <reason>` annotations on sync.Mutex / sync.RWMutex struct fields and
// package-level vars, and returns each annotated class's rank. A lockorder
// annotation on a declaration that fails to parse as rank=N with a
// non-empty reason is a finding: the hierarchy is documentation, and
// undocumented entries are what let it rot.
func collectRanks(pass *framework.Pass) map[string]int {
	ranks := make(map[string]int)
	for _, file := range pass.Files {
		if framework.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.TypeSpec:
				st, ok := d.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !isMutexType(pass.TypesInfo.TypeOf(field.Type)) {
						continue
					}
					reason, found := framework.Annotation(pass.Fset, file, field, "lockorder")
					if !found {
						continue
					}
					rank, ok := parseRank(reason)
					if !ok {
						pass.Report(field.Pos(), "//subdex:lockorder on a mutex declaration must be rank=N followed by a reason")
						continue
					}
					for _, name := range field.Names {
						class := pass.Path() + ".(" + d.Name.Name + ")." + name.Name
						ranks[class] = rank
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || !isMutexType(pass.TypesInfo.TypeOf(vs.Type)) {
						continue
					}
					reason, found := framework.Annotation(pass.Fset, file, vs, "lockorder")
					if !found {
						continue
					}
					rank, ok := parseRank(reason)
					if !ok {
						pass.Report(vs.Pos(), "//subdex:lockorder on a mutex declaration must be rank=N followed by a reason")
						continue
					}
					for _, name := range vs.Names {
						ranks[pass.Path()+"."+name.Name] = rank
					}
				}
			}
			return true
		})
	}
	return ranks
}

// parseRank parses "rank=N <reason>" returning the rank; ok is false
// when the prefix is missing, N does not parse, or the reason is empty.
func parseRank(text string) (int, bool) {
	fields := strings.Fields(text)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "rank=") {
		return 0, false
	}
	rank, err := strconv.Atoi(strings.TrimPrefix(fields[0], "rank="))
	if err != nil {
		return 0, false
	}
	return rank, true
}

func isMutexType(t types.Type) bool {
	return framework.NamedTypeIn(t, "sync", "Mutex") || framework.NamedTypeIn(t, "sync", "RWMutex")
}

// shortestPath returns a shortest path from → … → to (inclusive of
// both endpoints), or nil if unreachable. BFS over the composed graph;
// graphs here are a handful of mutex classes, so no cleverness is
// warranted.
func shortestPath(graph map[string][]string, from, to string) []string {
	type hop struct {
		node string
		prev *hop
	}
	visited := map[string]bool{from: true}
	queue := []*hop{{node: from}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.node == to {
			var rev []string
			for ; h != nil; h = h.prev {
				rev = append(rev, h.node)
			}
			out := make([]string, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				out = append(out, rev[i])
			}
			return out
		}
		next := append([]string(nil), graph[h.node]...)
		sort.Strings(next) // deterministic path choice for stable messages
		for _, n := range next {
			if !visited[n] {
				visited[n] = true
				queue = append(queue, &hop{node: n, prev: h})
			}
		}
	}
	return nil
}
