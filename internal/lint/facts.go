package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// FuncFacts is the interprocedural summary of one function: everything a
// caller's analysis needs to know without that function's body.
type FuncFacts struct {
	// TaintedResults maps result index -> reason for results that may
	// carry nondeterministic values regardless of the arguments.
	TaintedResults map[int]string
	// ParamFlows maps parameter index (-1 = receiver) -> result indices
	// that become tainted when that parameter is tainted.
	ParamFlows map[int][]int
	// SinkParams maps parameter index -> sink description for parameters
	// that (transitively) reach a determinism sink inside the function.
	SinkParams map[int]string

	// CtxBounded reports that the function's body observes cancellation:
	// it receives from a context.Done() channel or from a channel-typed
	// parameter, so a goroutine running it terminates with its context.
	CtxBounded bool
	// WgDones lists the canonical IDs of sync.WaitGroup variables the
	// function calls Done on, so a spawner's Add/Wait pairing can be
	// verified across a call boundary.
	WgDones []string

	// MayPanic reports an explicit panic reachable in the function or its
	// callees (recover-wrapped panics included; the fact is conservative).
	MayPanic bool
	// Locks lists the canonical IDs of mutexes the function (or its
	// callees) may acquire.
	Locks []string
	// LockPairs records ordered acquisitions: First was held when Second
	// was acquired (directly or through a callee). Inverted pairs across
	// the module are lock-order violations.
	LockPairs []LockPair
}

// LockPair is one ordered mutex acquisition with its source position.
type LockPair struct {
	First  string
	Second string
	File   string
	Line   int
}

// FactStore holds the module's function summaries, keyed by FuncID.
type FactStore struct {
	funcs map[FuncID]*FuncFacts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{funcs: map[FuncID]*FuncFacts{}}
}

// Get returns the facts for id, or nil when unknown (callee outside the
// analyzed set — analyses must treat that conservatively).
func (s *FactStore) Get(id FuncID) *FuncFacts {
	if s == nil {
		return nil
	}
	return s.funcs[id]
}

// Set records facts for id.
func (s *FactStore) Set(id FuncID, f *FuncFacts) { s.funcs[id] = f }

// AllLockPairs flattens every function's ordered-acquisition pairs into
// one deterministic slice — the input to the module-wide lock-order
// inversion check.
func (s *FactStore) AllLockPairs() []LockPair {
	if s == nil {
		return nil
	}
	ids := make([]FuncID, 0, len(s.funcs))
	for id := range s.funcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []LockPair
	seen := map[LockPair]bool{}
	for _, id := range ids {
		for _, p := range s.funcs[id].LockPairs {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// ComputeFacts builds summaries for every function in pkgs, bottom-up in
// import order with a per-package fixpoint so intra-package recursion and
// mutual calls converge.
func ComputeFacts(store *FactStore, graph *CallGraph, pkgs []*Package) {
	for _, pkg := range topoOrder(pkgs) {
		for round := 0; round < 8; round++ {
			changed := false
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					id := funcID(fn)
					if id == "" {
						continue
					}
					fresh := computeFuncFacts(pkg, store, graph, fd)
					if !reflect.DeepEqual(store.Get(id), fresh) {
						store.Set(id, fresh)
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
	}
}

// topoOrder sorts packages so that imports come before importers,
// restricted to the given set; ties resolve by import path for
// determinism.
func topoOrder(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var out []*Package
	state := map[string]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.Path] != 0 {
			return
		}
		state[p.Path] = 1
		imps := p.Types.Imports()
		paths := make([]string, 0, len(imps))
		for _, imp := range imps {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if dep, ok := byPath[path]; ok && state[path] != 1 {
				visit(dep)
			}
		}
		state[p.Path] = 2
		out = append(out, p)
	}
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		visit(p)
	}
	return out
}

// computeFuncFacts derives one function's summary from its body and the
// current store.
func computeFuncFacts(pkg *Package, store *FactStore, graph *CallGraph, fd *ast.FuncDecl) *FuncFacts {
	facts := &FuncFacts{}

	// Taint: a base pass for unconditional result taint, then one pass
	// per parameter to learn param->result and param->sink flows.
	base := newTaintScan(pkg, store, graph, fd)
	base.propagate()
	if rt := base.resultTaint(); len(rt) > 0 {
		facts.TaintedResults = rt
	}
	baseHits := map[string]bool{}
	for _, h := range base.sinkHits() {
		baseHits[h.sink] = true
	}
	params := paramObjects(pkg, fd)
	idxs := make([]int, 0, len(params))
	for i := range params {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		obj := params[i]
		if obj == nil {
			continue
		}
		scan := newTaintScan(pkg, store, graph, fd)
		scan.assume[obj] = "parameter"
		scan.propagate()
		var flowed []int
		for idx := range scan.resultTaint() {
			if facts.TaintedResults == nil || facts.TaintedResults[idx] == "" {
				flowed = append(flowed, idx)
			}
		}
		if len(flowed) > 0 {
			sort.Ints(flowed)
			if facts.ParamFlows == nil {
				facts.ParamFlows = map[int][]int{}
			}
			facts.ParamFlows[i] = flowed
		}
		for _, h := range scan.sinkHits() {
			if baseHits[h.sink] {
				continue
			}
			if facts.SinkParams == nil {
				facts.SinkParams = map[int]string{}
			}
			if _, ok := facts.SinkParams[i]; !ok {
				facts.SinkParams[i] = h.sink
			}
		}
	}

	facts.CtxBounded = ctxBoundedBody(pkg, fd.Body)
	facts.WgDones = wgDoneIDs(pkg, fd.Body)
	facts.MayPanic = mayPanicBody(pkg, store, graph, fd.Body)
	facts.Locks, facts.LockPairs = lockSummary(pkg, store, graph, fd)
	return facts
}

// ctxBoundedBody reports whether body observes cancellation: a receive
// (direct, select or range) from a context's Done() channel or from a
// channel-typed identifier — the patterns that bound a goroutine's life
// to its spawner's control.
func ctxBoundedBody(pkg *Package, body ast.Node) bool {
	bounded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if bounded {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && cancelChannel(pkg, n.X) {
				bounded = true
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					bounded = true
				}
			}
		}
		return true
	})
	return bounded
}

// cancelChannel reports whether e is a cancellation-shaped channel: a
// ctx.Done() call or any expression of channel type (a done/quit channel
// threaded in by the spawner).
func cancelChannel(pkg *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if isContextType(pkg.Info.TypeOf(sel.X)) {
				return true
			}
		}
	}
	if t := pkg.Info.TypeOf(e); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			return true
		}
	}
	return false
}

// wgDoneIDs collects the canonical IDs of WaitGroups the body calls Done
// on (deferred or not).
func wgDoneIDs(pkg *Package, body ast.Node) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if !isWaitGroup(pkg.Info.TypeOf(sel.X)) {
			return true
		}
		if id := syncObjID(pkg, sel.X); id != "" && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// isWaitGroup matches sync.WaitGroup (pointer or value).
func isWaitGroup(t types.Type) bool {
	path, name, ok := namedType(t)
	return ok && path == "sync" && name == "WaitGroup"
}

// mayPanicBody reports an explicit panic call in the body or in any
// summarized callee.
func mayPanicBody(pkg *Package, store *FactStore, graph *CallGraph, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "panic" {
				found = true
				return false
			}
		}
		if graph != nil {
			for _, cid := range graph.CalleeIDs(pkg.Info, call) {
				if f := store.Get(cid); f != nil && f.MayPanic {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// syncObjID canonicalizes the variable behind a sync primitive selector
// (mutex, waitgroup): fields get a type-anchored "pkg.Type.field" ID that
// is stable across instances; package-level vars get "pkg.var"; locals and
// parameters get a function-scoped ID that still matches within one
// function but never joins across functions.
func syncObjID(pkg *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// Field access: anchor to the owning named type.
		if path, name, ok := namedType(pkg.Info.TypeOf(x.X)); ok {
			return path + "." + name + "." + x.Sel.Name
		}
		// Package-qualified var.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := pkg.Info.ObjectOf(id).(*types.PkgName); isPkg {
				if obj := pkg.Info.ObjectOf(x.Sel); obj != nil && obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name()
				}
			}
		}
		return ""
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(x)
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		// Local: scope the ID to the declaration position so two locals
		// in different functions never alias.
		return "local:" + obj.Pkg().Path() + "." + obj.Name() + "@" + pkg.Fset.Position(obj.Pos()).String()
	case *ast.StarExpr:
		return syncObjID(pkg, x.X)
	}
	return ""
}
