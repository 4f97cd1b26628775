package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockCheck enforces mutex discipline across the module:
//
//   - no mutex (or struct containing one) copied through a value receiver
//     or value parameter;
//   - a Lock must be released on every path out of the function (an
//     explicit Unlock on each path or a deferred one);
//   - between a Lock and a non-deferred Unlock, no call that can panic
//     (an explicit panic in the callee's summary, or an opaque call
//     through a function value) — a panic there leaks the lock forever;
//   - no inverted acquisition order: if the call graph shows mutex A held
//     while B is acquired anywhere in the module, no other path may
//     acquire A while holding B.
//
// The path checks run on a bounded per-function CFG approximation
// (branches explored independently, loop bodies once); functions that
// exceed the path budget are skipped rather than guessed at. Acquisition
// pairs come from the interprocedural fact layer, so an inversion split
// across two packages is still caught. Lock identities anchor to their
// owning type ("pkg.Type.mu"), so the discipline is per-field, not
// per-instance — exactly the granularity a lock hierarchy is designed at.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "mutexes: no value copies, every Lock released on every path, no panic-capable call inside a non-deferred critical section, no inverted acquisition order",
	Run:  runLockCheck,
}

// lockEvent classifies one call as a mutex operation.
type lockEvent struct {
	id      string
	acquire bool
	read    bool
}

// mutexOp resolves a call to a lock event, nil when the call is not a
// sync.Mutex/RWMutex Lock/Unlock family method.
func mutexOp(pkg *Package, call *ast.CallExpr) *lockEvent {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	_, recvName, ok := namedType(sig.Recv().Type())
	if !ok || (recvName != "Mutex" && recvName != "RWMutex") {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id := syncObjID(pkg, sel.X)
	if id == "" {
		return nil
	}
	switch fn.Name() {
	case "Lock":
		return &lockEvent{id: id, acquire: true}
	case "RLock":
		return &lockEvent{id: id, acquire: true, read: true}
	case "Unlock":
		return &lockEvent{id: id}
	case "RUnlock":
		return &lockEvent{id: id, read: true}
	}
	return nil
}

// lockSummary computes the Locks and LockPairs facts for one function: a
// source-order approximation of which mutexes are held when others (or
// callees that lock) are reached. Deferred unlocks keep their mutex held
// for pairing purposes — that is exactly when nested acquisition happens.
func lockSummary(pkg *Package, store *FactStore, graph *CallGraph, fd *ast.FuncDecl) ([]string, []LockPair) {
	var held []string
	locks := map[string]bool{}
	pairSeen := map[LockPair]bool{}
	var pairs []LockPair

	addPair := func(p LockPair) {
		if !pairSeen[p] && len(pairs) < 128 {
			pairSeen[p] = true
			pairs = append(pairs, p)
		}
	}
	pos := func(p token.Pos) (string, int) {
		position := pkg.Fset.Position(p)
		return position.Filename, position.Line
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at exit; the mutex stays held
			// for everything after, so do not pop it here. Other
			// deferred calls run at exit too — their lock behaviour is
			// out of the source-order model.
			return false
		case *ast.GoStmt:
			// The spawned body runs on its own stack with its own lock
			// state.
			return false
		case *ast.CallExpr:
			if ev := mutexOp(pkg, n); ev != nil {
				if ev.acquire {
					file, line := pos(n.Pos())
					for _, h := range held {
						if h != ev.id {
							addPair(LockPair{First: h, Second: ev.id, File: file, Line: line})
						}
					}
					held = append(held, ev.id)
					locks[ev.id] = true
				} else {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == ev.id {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
			if graph == nil {
				return true
			}
			for _, cid := range graph.CalleeIDs(pkg.Info, n) {
				facts := store.Get(cid)
				if facts == nil {
					continue
				}
				for _, l := range facts.Locks {
					locks[l] = true
					file, line := pos(n.Pos())
					for _, h := range held {
						if h != l {
							addPair(LockPair{First: h, Second: l, File: file, Line: line})
						}
					}
				}
				// Callee-internal orderings bubble up with their
				// original positions so the module-wide inversion check
				// sees one flat pair set.
				for _, p := range facts.LockPairs {
					addPair(p)
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)

	out := make([]string, 0, len(locks))
	for l := range locks {
		out = append(out, l)
	}
	sort.Strings(out)
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.First != b.First {
			return a.First < b.First
		}
		if a.Second != b.Second {
			return a.Second < b.Second
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return out, pairs
}

func runLockCheck(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkValueReceiver(pass, fd)
			if fd.Body != nil {
				checkLockPaths(pass, fd)
			}
		}
	}
	checkLockOrder(pass)
}

// mutexField reports whether t is a struct type with a direct or embedded
// sync.Mutex/RWMutex field.
func mutexField(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		path, name, ok := namedType(st.Field(i).Type())
		if ok && path == "sync" && (name == "Mutex" || name == "RWMutex") {
			// A *sync.Mutex field is a reference; copying the struct
			// shares the lock instead of duplicating it.
			if _, isPtr := st.Field(i).Type().(*types.Pointer); !isPtr {
				return true
			}
		}
	}
	return false
}

// checkValueReceiver flags methods and parameters that copy a
// mutex-containing struct by value: the copy's lock state diverges from
// the original's, so both "locked" copies can enter the critical section.
func checkValueReceiver(pass *Pass, fd *ast.FuncDecl) {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := pass.TypeOf(fd.Recv.List[0].Type)
		if t != nil {
			if _, isPtr := t.(*types.Pointer); !isPtr && mutexField(t) {
				pass.Reportf(fd.Recv.Pos(), "method %s copies its receiver's mutex: %s contains a lock, use a pointer receiver", fd.Name.Name, types.TypeString(t, nil))
			}
		}
	}
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if _, isPtr := t.(*types.Pointer); !isPtr && mutexField(t) {
			pass.Reportf(field.Pos(), "parameter copies a mutex-containing struct by value: pass *%s", types.TypeString(t, nil))
		}
	}
}

// pathBudget bounds the branch exploration per function; functions more
// branchy than this are skipped (silence, not guessing).
const pathBudget = 512

// lockState is the explorer's per-path state.
type lockState struct {
	held     map[string][]token.Pos // id -> positions of outstanding Locks
	deferred map[string]int         // id -> count of scheduled deferred Unlocks
}

func (s lockState) clone() lockState {
	n := lockState{held: map[string][]token.Pos{}, deferred: map[string]int{}}
	for k, v := range s.held {
		n.held[k] = append([]token.Pos(nil), v...)
	}
	for k, v := range s.deferred {
		n.deferred[k] = v
	}
	return n
}

// lockWalker explores a function's paths tracking lock state.
type lockWalker struct {
	pass     *Pass
	paths    int
	aborted  bool
	missing  map[token.Pos]bool // Lock positions already reported
	panicky  map[token.Pos]bool // risky-call positions already reported
	findings []Finding
}

// checkLockPaths runs the bounded path exploration over one function and
// reports through the pass unless the budget was blown.
func checkLockPaths(pass *Pass, fd *ast.FuncDecl) {
	w := &lockWalker{
		pass:    pass,
		missing: map[token.Pos]bool{},
		panicky: map[token.Pos]bool{},
	}
	st := lockState{held: map[string][]token.Pos{}, deferred: map[string]int{}}
	w.walkSeq(fd.Body.List, 0, st, true)
	if w.aborted {
		return
	}
	for pos := range w.missing {
		pass.Reportf(pos, "Lock is not released on every path out of %s: add an Unlock on each return or defer it", fd.Name.Name)
	}
	for pos := range w.panicky {
		pass.Reportf(pos, "call can panic while a mutex is held without a deferred Unlock: the lock would leak; defer the Unlock")
	}
}

// shortFile trims a path to its base for messages.
func shortFile(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// walkSeq explores stmts[idx:]; exit says whether falling off the end is a
// function exit (true at the top level, false inside loop bodies whose
// fallthrough continues the function).
func (w *lockWalker) walkSeq(stmts []ast.Stmt, idx int, st lockState, exit bool) {
	if w.aborted {
		return
	}
	for i := idx; i < len(stmts); i++ {
		if w.aborted {
			return
		}
		s := stmts[i]
		switch s := s.(type) {
		case *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
			w.simpleStmt(s, &st)
		case *ast.DeferStmt:
			if ev := mutexOp(w.pass.Pkg, s.Call); ev != nil && !ev.acquire {
				st.deferred[ev.id]++
			}
		case *ast.ReturnStmt:
			w.simpleStmt(s, &st)
			w.exitCheck(st)
			return
		case *ast.BranchStmt:
			// break/continue/goto leave the modeled region; ending the
			// path silently avoids false "missing unlock" reports from
			// loop-escape idioms.
			return
		case *ast.BlockStmt:
			w.branch([]ast.Stmt{}, s.List, stmts, i+1, st, exit)
			return
		case *ast.IfStmt:
			if s.Init != nil {
				w.simpleStmt(s.Init, &st)
			}
			var elseList []ast.Stmt
			if s.Else != nil {
				elseList = []ast.Stmt{s.Else}
			}
			w.branch(s.Body.List, elseList, stmts, i+1, st, exit)
			return
		case *ast.ForStmt:
			if s.Init != nil {
				w.simpleStmt(s.Init, &st)
			}
			w.branch(s.Body.List, []ast.Stmt{}, stmts, i+1, st, exit)
			return
		case *ast.RangeStmt:
			w.branch(s.Body.List, []ast.Stmt{}, stmts, i+1, st, exit)
			return
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			w.branchCases(s, stmts, i+1, st, exit)
			return
		case *ast.LabeledStmt:
			stmts = append(append(append([]ast.Stmt{}, stmts[:i]...), s.Stmt), stmts[i+1:]...)
			w.walkSeq(stmts, i, st, exit)
			return
		case *ast.GoStmt:
			// Spawned body has its own stack; checked separately.
		default:
			w.simpleStmt(s, &st)
		}
	}
	if exit {
		w.exitCheck(st)
	}
}

// branch explores thenList+rest and elseList+rest as separate paths.
func (w *lockWalker) branch(thenList, elseList []ast.Stmt, rest []ast.Stmt, restIdx int, st lockState, exit bool) {
	for _, list := range [][]ast.Stmt{thenList, elseList} {
		if w.bumpPath() {
			return
		}
		sub := st.clone()
		combined := append(append([]ast.Stmt{}, list...), rest[restIdx:]...)
		w.walkSeq(combined, 0, sub, exit)
	}
}

// branchCases explores every case body of a switch/select plus the
// no-case fallthrough when there is no default clause.
func (w *lockWalker) branchCases(s ast.Stmt, rest []ast.Stmt, restIdx int, st lockState, exit bool) {
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(body *ast.BlockStmt, init ast.Stmt) {
		if init != nil {
			w.simpleStmt(init, &st)
		}
		for _, c := range body.List {
			switch c := c.(type) {
			case *ast.CaseClause:
				bodies = append(bodies, c.Body)
				if c.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				var prefix []ast.Stmt
				if c.Comm != nil {
					prefix = []ast.Stmt{c.Comm}
				}
				bodies = append(bodies, append(prefix, c.Body...))
				if c.Comm == nil {
					hasDefault = true
				}
			}
		}
	}
	switch s := s.(type) {
	case *ast.SwitchStmt:
		collect(s.Body, s.Init)
	case *ast.TypeSwitchStmt:
		collect(s.Body, s.Init)
	case *ast.SelectStmt:
		collect(s.Body, nil)
		hasDefault = true // a select blocks; some case always runs
	}
	if !hasDefault {
		bodies = append(bodies, nil)
	}
	for _, body := range bodies {
		if w.bumpPath() {
			return
		}
		sub := st.clone()
		combined := append(append([]ast.Stmt{}, body...), rest[restIdx:]...)
		w.walkSeq(combined, 0, sub, exit)
	}
}

func (w *lockWalker) bumpPath() bool {
	w.paths++
	if w.paths > pathBudget {
		w.aborted = true
	}
	return w.aborted
}

// simpleStmt applies the lock events and risky-call checks of one
// non-branching statement (nested function literals excluded — their
// bodies run elsewhere).
func (w *lockWalker) simpleStmt(s ast.Stmt, st *lockState) {
	ast.Inspect(s, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ev := mutexOp(w.pass.Pkg, call); ev != nil {
			if ev.acquire {
				st.held[ev.id] = append(st.held[ev.id], call.Pos())
			} else if n := len(st.held[ev.id]); n > 0 {
				st.held[ev.id] = st.held[ev.id][:n-1]
			}
			return true
		}
		if w.riskyCall(call) && w.heldWithoutDefer(*st) {
			w.panicky[call.Pos()] = true
		}
		return true
	})
}

// heldWithoutDefer reports whether any lock is held with fewer scheduled
// deferred unlocks than outstanding acquisitions.
func (w *lockWalker) heldWithoutDefer(st lockState) bool {
	for id, poss := range st.held {
		if len(poss) > st.deferred[id] {
			return true
		}
	}
	return false
}

// riskyCall reports a call that can panic: an opaque call through a
// function value, or a callee whose summary says it panics. In-repo
// static calls without a panic fact are trusted — the nopanic analyzer
// keeps library code panic-free.
func (w *lockWalker) riskyCall(call *ast.CallExpr) bool {
	if w.pass.Graph == nil {
		return false
	}
	fns, dynamic := w.pass.Graph.resolve(w.pass.Pkg.Info, call)
	if dynamic {
		return true
	}
	for _, fn := range fns {
		if facts := w.pass.Facts.Get(funcID(fn)); facts != nil && facts.MayPanic {
			return true
		}
	}
	return false
}

// exitCheck records a finding for every lock still held at a function
// exit beyond its scheduled deferred unlocks.
func (w *lockWalker) exitCheck(st lockState) {
	for id, poss := range st.held {
		excess := len(poss) - st.deferred[id]
		for i := 0; i < excess && i < len(poss); i++ {
			w.missing[poss[i]] = true
		}
	}
}

// checkLockOrder reports inverted acquisition orders. The pair sets come
// from the fact layer, so they span the whole loaded module; each package
// reports only the pair sites inside itself, so every inversion is
// reported once.
func checkLockOrder(pass *Pass) {
	pairs := pass.Facts.AllLockPairs()
	type key struct{ a, b string }
	index := map[key][]LockPair{}
	for _, p := range pairs {
		index[key{p.First, p.Second}] = append(index[key{p.First, p.Second}], p)
	}
	reported := map[string]bool{}
	for k, sites := range index {
		inv, ok := index[key{k.b, k.a}]
		if !ok {
			continue
		}
		for _, site := range sites {
			if !pass.Pkg.ownsFile(site.File) {
				continue
			}
			sig := fmt.Sprintf("%s|%s|%s|%d", k.a, k.b, site.File, site.Line)
			if reported[sig] {
				continue
			}
			reported[sig] = true
			other := inv[0]
			pass.reportAt(site.File, site.Line, "lock order inversion: %s acquired while %s is held here, but the reverse order is taken at %s:%d — a concurrent pair can deadlock", k.b, k.a, shortFile(other.File), other.Line)
		}
	}
}
