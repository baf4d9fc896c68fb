// Inter-procedural building blocks: the facts-based dataflow layer
// lockorder composes its cross-package check from, and the statement
// walker it shares with lockblock.
//
// The model mirrors `go vet`'s fact propagation. An analyzer computes,
// per package, a summary for every declared function (which lock classes
// it may acquire) that is already *closed* over everything the package
// can see: its own call graph (by local fixpoint, so intra-package
// recursion and mutual calls converge) and the summaries in the facts of
// the packages analyzed before it. A dependent package then needs exactly
// one hop — look the callee's key up in the fact — never a whole-program
// graph.
//
// Identity is textual because facts are JSON: functions are keyed
// "pkgpath.Name" / "pkgpath.(Type).Name", and locks are keyed by
// *class* — "pkgpath.(Type).field" for a struct field, "pkgpath.name"
// for a package-level var — deliberately merging all instances of a type
// (every sessionEntry.mu is one class: lock *order* is a property of
// classes, not instances). A local that never leaves a function has no
// class; ScanFlow tracks it by expression.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// Function identity
// ---------------------------------------------------------------------------

// FuncKeyOf renders fn as a stable cross-package key:
// "pkgpath.Name" for package functions, "pkgpath.(Type).Name" for
// methods (pointer receivers and value receivers share a key; interface
// methods use the interface's name). Returns "" for builtins.
func FuncKeyOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if recv := ReceiverTypeName(fn); recv != "" {
		return fn.Pkg().Path() + ".(" + recv + ")." + fn.Name()
	}
	// A package function — or a receiver of unnamed type (an embedded
	// interface literal), whose package-function rendering is still
	// stable if imprecise.
	return fn.Pkg().Path() + "." + fn.Name()
}

// FuncBody is one scannable function body in a package: either a
// declaration (Key non-empty, Decl set) or a function literal (Key "",
// Lit set). Literals are enumerated as independent bodies, however
// deeply nested, because flow scans never descend into them: a closure
// generally runs outside its lexical context (deferred, spawned,
// stored).
type FuncBody struct {
	Key  string
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	File *ast.File
}

// FuncBodies enumerates every function body in the pass's non-test
// files: each FuncDecl with a body, then each FuncLit (in source
// order, including literals nested inside other literals), each exactly
// once.
func FuncBodies(pass *Pass) []FuncBody {
	var out []FuncBody
	for _, file := range pass.Files {
		if IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					key := ""
					if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
						key = FuncKeyOf(obj)
					}
					out = append(out, FuncBody{Key: key, Decl: fn, Body: fn.Body, File: file})
				}
			case *ast.FuncLit:
				out = append(out, FuncBody{Lit: fn, Body: fn.Body, File: file})
			}
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Object classes
// ---------------------------------------------------------------------------

// ObjClass renders the object behind expr (the receiver of a Lock call)
// as a cross-package class:
//
//	fs.swapMu      → "subdex/internal/sessionstore.(FileStore).swapMu"
//	fs.st.mu       → "subdex/internal/sessionstore.(memState).mu"
//	pkgLevelMu     → "pkg.pkgLevelMu"
//	localVar       → ""
//
// Field classes name the *selection's* receiver type, so a field
// promoted from an embedded struct is keyed by the outer type — stable
// for a given source idiom, which is all comparison needs. All
// instances of a type share one class by design.
func ObjClass(info *types.Info, expr ast.Expr) string {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() { // package-level var
			return v.Pkg().Path() + "." + v.Name()
		}
		return ""
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok {
			// Qualified identifier pkg.Var.
			if obj, okO := info.Uses[x.Sel].(*types.Var); okO && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return ""
		}
		v, ok := sel.Obj().(*types.Var)
		if !ok || !v.IsField() || v.Pkg() == nil {
			return ""
		}
		t := sel.Recv()
		if ptr, okP := t.(*types.Pointer); okP {
			t = ptr.Elem()
		}
		named, okN := t.(*types.Named)
		if !okN {
			return ""
		}
		return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + v.Name()
	}
	return ""
}

// localPrefix marks the key of an object that has no class.
const localPrefix = "local:"

// objKey is ObjClass with a fallback for a local, which renders to no
// class: localPrefix plus the expression, meaningful in one function only.
func objKey(info *types.Info, expr ast.Expr) string {
	if class := ObjClass(info, expr); class != "" {
		return class
	}
	return localPrefix + exprKey(expr)
}

// ---------------------------------------------------------------------------
// Lock/call flow scan
// ---------------------------------------------------------------------------

// FlowKind discriminates FlowEvents.
type FlowKind int

const (
	// FlowAcquire is a blocking Lock/RLock on a class-renderable mutex.
	FlowAcquire FlowKind = iota
	// FlowTryAcquire is TryLock/TryRLock: it joins the held set (a lock
	// held is held, however acquired) but can never *block*, so it must
	// not become the target of a deadlock edge.
	FlowTryAcquire
	// FlowCall is a statically resolvable call (Callee/Key set).
	FlowCall
	// FlowSend, FlowRecv and FlowSelect are the operations that park a
	// goroutine on a channel: a send statement, a receive expression, and
	// a select with no default clause (whose communications are not
	// reported on their own: whether they block is the select's property).
	FlowSend
	FlowRecv
	FlowSelect
)

// A FlowEvent is one acquisition, call or channel operation observed by
// ScanFlow, with the locks held when control reaches it.
type FlowEvent struct {
	Kind   FlowKind
	Class  string      // lock class, for acquires
	Callee *types.Func // for FlowCall
	Key    string      // FuncKeyOf(Callee), for FlowCall
	Call   *ast.CallExpr
	Held   []string // sorted lock classes held before this event
	// Locks names every lock held before this event by the expression
	// that took it ("s.mu", "mu"), sorted — Held plus the function-local
	// mutexes that render to no class.
	Locks []string
	Pos   token.Pos
}

// ScanFlow walks body in statement order, tracking which mutexes are
// held, and emits an event for every blocking/try acquisition of a
// class-renderable mutex, every statically resolvable call and every
// channel operation that can park. It is the one statement walker of the
// lock analyzers, so lockblock and lockorder agree on what "held" means:
// branch bodies inherit (a clone of) the state at entry; an unlock inside
// a branch does not clear the fall-through state; `defer x.Unlock()`
// means held to function end; deferred and spawned calls and nested
// function literals are not descended into (literals are scanned as
// their own FuncBody). A mutex is identified by its class, so all
// instances of a type are one lock; one that renders to no class (a
// local) is tracked by its expression, appears in Locks only, and emits
// no acquire event — lock *order* is a property of classes.
func ScanFlow(info *types.Info, body *ast.BlockStmt, emit func(FlowEvent)) {
	fs := &flowScanner{info: info, emit: emit}
	fs.block(body, map[string]heldLock{})
}

type flowScanner struct {
	info *types.Info
	emit func(FlowEvent)
	// inComm is set while a select's communication is scanned: its calls
	// count, its channel operation is the select's to report.
	inComm bool
}

// heldLock is one entry of the held set, keyed by objKey.
type heldLock struct {
	n    int    // acquisitions not yet released
	name string // the expression that took it first, for messages
}

// event emits ev with the held set rendered both ways.
func (fs *flowScanner) event(ev FlowEvent, held map[string]heldLock) {
	for key, l := range held {
		if l.n <= 0 {
			continue
		}
		ev.Locks = append(ev.Locks, l.name)
		if !strings.HasPrefix(key, localPrefix) {
			ev.Held = append(ev.Held, key)
		}
	}
	sort.Strings(ev.Held)
	sort.Strings(ev.Locks)
	fs.emit(ev)
}

func cloneHeld(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for c, l := range held {
		out[c] = l
	}
	return out
}

func (fs *flowScanner) block(body *ast.BlockStmt, held map[string]heldLock) {
	for _, stmt := range body.List {
		fs.stmt(stmt, held)
	}
}

func (fs *flowScanner) stmt(stmt ast.Stmt, held map[string]heldLock) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		fs.expr(s.X, held)
	case *ast.SendStmt:
		if !fs.inComm {
			fs.event(FlowEvent{Kind: FlowSend, Pos: s.Arrow}, held)
		}
		fs.expr(s.Chan, held)
		fs.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			fs.expr(e, held)
		}
	case *ast.IncDecStmt:
		fs.expr(s.X, held)
	case *ast.DeferStmt, *ast.GoStmt:
		// defer x.Unlock() = held to end (no state change); other
		// deferred calls and spawned goroutines run outside this flow.
	case *ast.IfStmt:
		if s.Init != nil {
			fs.stmt(s.Init, held)
		}
		fs.expr(s.Cond, held)
		fs.block(s.Body, cloneHeld(held))
		if s.Else != nil {
			fs.stmt(s.Else, cloneHeld(held))
		}
	case *ast.BlockStmt:
		fs.block(s, held)
	case *ast.ForStmt:
		if s.Init != nil {
			fs.stmt(s.Init, held)
		}
		if s.Cond != nil {
			fs.expr(s.Cond, held)
		}
		fs.block(s.Body, cloneHeld(held))
	case *ast.RangeStmt:
		fs.expr(s.X, held)
		fs.block(s.Body, cloneHeld(held))
	case *ast.SelectStmt:
		blocking := true // until a default clause shows up
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				inner := cloneHeld(held)
				if cc.Comm != nil {
					fs.inComm = true
					fs.stmt(cc.Comm, inner)
					fs.inComm = false
				}
				blocking = blocking && cc.Comm != nil
				for _, cs := range cc.Body {
					fs.stmt(cs, inner)
				}
			}
		}
		if blocking {
			fs.event(FlowEvent{Kind: FlowSelect, Pos: s.Select}, held)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			fs.stmt(s.Init, held)
		}
		if s.Tag != nil {
			fs.expr(s.Tag, held)
		}
		fs.caseBodies(s.Body, held)
	case *ast.TypeSwitchStmt:
		fs.caseBodies(s.Body, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			fs.expr(e, held)
		}
	case *ast.LabeledStmt:
		fs.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						fs.expr(e, held)
					}
				}
			}
		}
	}
}

func (fs *flowScanner) caseBodies(body *ast.BlockStmt, held map[string]heldLock) {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok {
			inner := cloneHeld(held)
			for _, cs := range cc.Body {
				fs.stmt(cs, inner)
			}
		}
	}
}

// expr inspects e in traversal order, applying mutex calls to held and
// emitting events. Nested function literals are opaque.
func (fs *flowScanner) expr(e ast.Expr, held map[string]heldLock) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !fs.inComm {
				fs.event(FlowEvent{Kind: FlowRecv, Pos: x.OpPos}, held)
			}
		case *ast.CallExpr:
			fs.call(x, held)
		}
		return true
	})
}

// call applies a mutex method to held, or emits the call.
func (fs *flowScanner) call(call *ast.CallExpr, held map[string]heldLock) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	recv, method := "", ""
	if ok {
		recv, method = syncMethod(fs.info, sel)
	}
	if recv != "Mutex" && recv != "RWMutex" {
		if fn := CalleeFunc(fs.info, call); fn != nil {
			fs.event(FlowEvent{Kind: FlowCall, Callee: fn, Key: FuncKeyOf(fn), Call: call, Pos: call.Pos()}, held)
		}
		return
	}
	key := objKey(fs.info, sel.X)
	l := held[key]
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock":
		if !strings.HasPrefix(key, localPrefix) {
			kind := FlowAcquire
			if method == "TryLock" || method == "TryRLock" {
				kind = FlowTryAcquire
			}
			fs.event(FlowEvent{Kind: kind, Class: key, Call: call, Pos: call.Pos()}, held)
		}
		if l.n == 0 {
			l.name = exprKey(sel.X)
		}
		l.n++
	case "Unlock", "RUnlock":
		if l.n > 0 {
			l.n--
		}
	}
	held[key] = l
}

// exprKey renders an expression as a source-path key: "s.mu", "mu",
// "shards[...]" — how a held lock is named in messages, and what
// identifies a function-local one.
func exprKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprKey(x.X) + "[...]"
	default:
		return "<expr>"
	}
}

// syncMethod resolves sel to a method of a package sync type (selected
// directly or via embedding) and returns the type's and the method's
// names — ("Mutex", "Lock") — or "", "".
func syncMethod(info *types.Info, sel *ast.SelectorExpr) (recv, method string) {
	selection, ok := info.Selections[sel]
	if !ok {
		return "", ""
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	return ReceiverTypeName(fn), fn.Name()
}

// ReceiverTypeName returns the name of fn's receiver type, pointers
// unwrapped: "" for a package-level function and for a receiver that is
// not a named type (an interface method set carries no name here).
func ReceiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, okP := t.(*types.Pointer); okP {
		t = ptr.Elem()
	}
	if named, okN := t.(*types.Named); okN {
		return named.Obj().Name()
	}
	return ""
}

// ---------------------------------------------------------------------------
// Interface dispatch and summary closure
// ---------------------------------------------------------------------------

// InterfaceMethodImpls maps, for every interface type defined at
// package scope in pkg, each interface-method key
// ("pkg.(Iface).Method") to the keys of the same-signature methods on
// the concrete package-scope types that implement the interface.
// Analyzers use it to export a merged summary under the interface
// method's key, which is what a dynamic call site's FlowEvent.Key is —
// so a caller of sessionstore.Store.Get composes with the union of
// MemStore.Get and FileStore.Get without ever seeing the concrete
// types. Implementations in *other* packages are invisible (vet's
// one-hop fact model); SubDEx keeps Store implementations beside the
// interface for exactly this reason.
func InterfaceMethodImpls(pkg *types.Package) map[string][]string {
	scope := pkg.Scope()
	var ifaces, concretes []*types.TypeName
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if types.IsInterface(tn.Type()) {
			ifaces = append(ifaces, tn)
		} else {
			concretes = append(concretes, tn)
		}
	}
	out := make(map[string][]string)
	for _, itn := range ifaces {
		iface, ok := itn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, ctn := range concretes {
			impl := ctn.Type()
			ptr := types.NewPointer(impl)
			if !types.Implements(impl, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, pkg, m.Name())
				implFn, okF := obj.(*types.Func)
				if !okF {
					continue
				}
				ikey := pkg.Path() + ".(" + itn.Name() + ")." + m.Name()
				out[ikey] = append(out[ikey], FuncKeyOf(implFn))
			}
		}
	}
	for k := range out {
		sort.Strings(out[k])
	}
	return out
}

// Closure computes, for every function key in seeds ∪ calls, the
// transitive union of seed values reachable through the call relation:
// result[f] = seeds[f] ∪ ⋃ result[g] for g ∈ calls[f]. Callees outside
// the local domain resolve through external (typically a lookup into
// imported facts, already closed; nil means "unknown, contributes
// nothing"). Local cycles converge by fixpoint iteration; the result's
// value slices are sorted and deduplicated.
func Closure(seeds map[string][]string, calls map[string][]string, external func(key string) []string) map[string][]string {
	result := make(map[string]map[string]bool)
	local := func(key string) bool {
		_, inSeeds := seeds[key]
		_, inCalls := calls[key]
		return inSeeds || inCalls
	}
	for key, vals := range seeds {
		set := make(map[string]bool, len(vals))
		for _, v := range vals {
			set[v] = true
		}
		result[key] = set
	}
	for key := range calls {
		if result[key] == nil {
			result[key] = make(map[string]bool)
		}
	}
	// External contributions are stable; fold them in once.
	if external != nil {
		for key, callees := range calls {
			for _, g := range callees {
				if local(g) {
					continue
				}
				for _, v := range external(g) {
					result[key][v] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for key, callees := range calls {
			dst := result[key]
			for _, g := range callees {
				if !local(g) {
					continue
				}
				for v := range result[g] {
					if !dst[v] {
						dst[v] = true
						changed = true
					}
				}
			}
		}
	}
	out := make(map[string][]string, len(result))
	for key, set := range result {
		vals := make([]string, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		out[key] = vals
	}
	return out
}
