package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the determinism-taint engine shared by the dettaint
// analyzer and the fact layer. Taint models "this value depends on
// process-local nondeterministic state": wall-clock reads, the global
// math/rand source, map-iteration order, pointer formatting and process
// identity. Flows are tracked flow-insensitively through assignments,
// struct fields, channels, closures and calls (via function summaries),
// and reported when a tainted value reaches a canonical-encoding sink.

// taintSources are the functions whose results are tainted. A
// metrics.Histogram holds wall-clock latencies (Observe leaves its holder
// clean, see holderClean), so what Snapshot reads back out is one.
var taintSources = map[FuncID]string{
	"time.Now":   "wall-clock time.Now",
	"time.Since": "wall-clock time.Since",
	"time.Until": "wall-clock time.Until",
	"os.Getpid":  "process id os.Getpid",
	"(repro/internal/metrics.Histogram).Snapshot": "wall-clock histogram snapshot",
}

// detRandDraws are the math/rand package-level functions that consume the
// global (process-wide, unseeded-by-us) source. Constructors (New,
// NewSource, NewZipf) stay legal: all randomness must flow from an
// explicitly seeded *rand.Rand.
var detRandDraws = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// sourceOf reports whether calling fn reads a nondeterminism source, and
// why.
func sourceOf(fn *types.Func) (string, bool) {
	if r, ok := taintSources[funcID(fn)]; ok {
		return r, true
	}
	if pkgFunc(fn) != "" && fn.Pkg().Path() == "math/rand" && detRandDraws[fn.Name()] {
		return "global math/rand source", true
	}
	return "", false
}

// holderClean are the methods that keep a tainted argument inside their
// receiver where no sink reads it, so the call leaves the receiver's root
// object clean: a histogram's observations come back out only through
// Snapshot, a source in its own right, and a Breakdown's stage timings
// are never encoded. Breakdown.Count is not here: EncodeResult serves the
// counters.
var holderClean = map[FuncID]bool{
	"(repro/internal/metrics.Histogram).Observe": true,
	"(repro/internal/metrics.Breakdown).Time":    true,
	"(repro/internal/metrics.Breakdown).Add":     true,
}

// sinkSpec names one determinism sink: a function whose listed parameters
// (-1 is the receiver) must only ever see deterministic values, because
// their bytes end up content-addressed, journaled or served.
type sinkSpec struct {
	id     FuncID
	params []int
	desc   string
}

// taintSinks is the sink registry. These are the repo's canonical
// encoders and durability boundaries: a nondeterministic value reaching
// any of them silently breaks the byte-identity contracts the cache,
// journal and verifier rely on.
var taintSinks = []sinkSpec{
	{id: "repro/tqec.CacheKey", params: []int{0, 1}, desc: "tqec.CacheKey content address"},
	{id: "repro/internal/baseline.Canonical", params: []int{0}, desc: "baseline.Canonical canonical volume"},
	{id: "(repro/internal/journal.Journal).Append", params: []int{0}, desc: "journal record payload"},
	{id: "repro/internal/server.EncodeResult", params: []int{0, 1}, desc: "served compile payload (EncodeResult)"},
	{id: "repro/internal/server.EncodePartitionedResult", params: []int{0, 1, 2, 3}, desc: "served partitioned payload (EncodePartitionedResult)"},
}

// resultStruct identifies repro/tqec.Result, whose fields are all sinks:
// every field feeds EncodeResult, the verifier or the paper tables.
const (
	resultPkg  = "repro/tqec"
	resultName = "Result"
	// resultExemptField is the one Result field allowed to carry
	// nondeterministic values: the per-stage wall-clock Breakdown, which
	// is diagnostics by design. EncodeResult serves only its event
	// counters, never its stage timings, so the exemption covers the
	// timing writes (see holderClean) and reads, and it stops taint from
	// spreading to the whole Result object when the field is assigned.
	resultExemptField = "Breakdown"
)

// sinkByID returns the sink spec for a callee, or nil.
func sinkByID(id FuncID) *sinkSpec {
	for i := range taintSinks {
		if taintSinks[i].id == id {
			return &taintSinks[i]
		}
	}
	return nil
}

// taintScan is one flow-insensitive taint pass over a single function
// (closures included — they share the object space). assume seeds
// parameters as tainted for summary computation.
type taintScan struct {
	pkg      *Package
	store    *FactStore
	graph    *CallGraph
	fd       *ast.FuncDecl
	assume   map[types.Object]string
	tainted  map[types.Object]string
	mapOrder []mapOrderSite
}

// mapOrderSite is one slice filled in map-iteration order and never
// sorted afterwards, with the range statement that fills it.
type mapOrderSite struct {
	rng *ast.RangeStmt
	obj types.Object
}

func newTaintScan(pkg *Package, store *FactStore, graph *CallGraph, fd *ast.FuncDecl) *taintScan {
	return &taintScan{
		pkg:     pkg,
		store:   store,
		graph:   graph,
		fd:      fd,
		assume:  map[types.Object]string{},
		tainted: map[types.Object]string{},
	}
}

// propagate seeds map-order accumulators and iterates the assignment walk
// to a fixpoint.
func (s *taintScan) propagate() {
	s.seedMapOrder()
	for round := 0; round < 16; round++ {
		before := len(s.tainted)
		s.walkAssignments()
		if len(s.tainted) == before {
			return
		}
	}
}

// seedMapOrder taints slices that accumulate elements in map-iteration
// order without a subsequent sort in the same function: their element
// order is scheduling-dependent even though each element is deterministic.
// Each such slice is also recorded in s.mapOrder with the range statement
// that fills it.
func (s *taintScan) seedMapOrder() {
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := s.pkg.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, obj := range rangeAppendTargets(s.pkg, rs) {
			if !sortedAfterStmt(s.pkg, s.fd, rs, obj) {
				s.mapOrder = append(s.mapOrder, mapOrderSite{rs, obj})
				if _, ok := s.tainted[obj]; !ok {
					s.tainted[obj] = "map-iteration order"
				}
			}
		}
		return true
	})
}

// walkAssignments performs one propagation round over every statement.
func (s *taintScan) walkAssignments() {
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			s.assign(n)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				s.assignPair(identExprs(vs.Names), vs.Values)
			}
		case *ast.RangeStmt:
			// Ranging over a tainted collection taints the drawn
			// key/value bindings.
			if reason, ok := s.taintOf(n.X); ok {
				for _, lhs := range []ast.Expr{n.Key, n.Value} {
					if lhs != nil {
						s.taintLHS(lhs, reason)
					}
				}
			}
		case *ast.SendStmt:
			if reason, ok := s.taintOf(n.Value); ok {
				s.taintLHS(n.Chan, "channel carrying "+strip(reason))
			}
		case *ast.CallExpr:
			s.taintReceiverOfMutator(n)
		}
		return true
	})
}

// assign handles one assignment statement, aligning multi-value forms.
func (s *taintScan) assign(as *ast.AssignStmt) {
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		// a, b := f() — align against the call's per-result taint.
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			results := s.callResultTaint(call)
			for i, lhs := range as.Lhs {
				if reason, ok := results[i]; ok {
					s.taintLHS(lhs, reason)
				}
			}
			return
		}
		// v, ok := m[k] / x.(T) / <-ch: taint follows the source expr.
		if reason, ok := s.taintOf(as.Rhs[0]); ok {
			s.taintLHS(as.Lhs[0], reason)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		if reason, ok := s.taintOf(as.Rhs[i]); ok {
			s.taintLHS(lhs, reason)
		}
	}
}

func (s *taintScan) assignPair(lhs, rhs []ast.Expr) {
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		if reason, ok := s.taintOf(rhs[i]); ok {
			s.taintLHS(l, reason)
		}
	}
}

// taintLHS marks the object behind an assignment target. Writing a
// tainted value into a field or element taints the whole root object
// (coarse but sound for the byte-encoding sinks), except through fields
// on the exemption list.
func (s *taintScan) taintLHS(lhs ast.Expr, reason string) {
	lhs = ast.Unparen(lhs)
	if sel, ok := lhs.(*ast.SelectorExpr); ok && s.exemptField(sel) {
		return
	}
	obj := s.rootObj(lhs)
	if obj == nil {
		return
	}
	if _, ok := s.tainted[obj]; !ok {
		s.tainted[obj] = reason
	}
}

// taintReceiverOfMutator taints a method call's root receiver object
// when a tainted argument is passed in: the method may store the value
// (buf.Write, list.PushBack, Breakdown.Count). Methods on the holderClean
// list keep the value to themselves and block the spread.
func (s *taintScan) taintReceiverOfMutator(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if _, isMethod := s.pkg.Info.Selections[sel]; !isMethod {
		return
	}
	if holderClean[funcID(calleeFunc(s.pkg.Info, call))] {
		return
	}
	var reason string
	tainted := false
	for _, arg := range call.Args {
		if r, ok := s.taintOf(arg); ok {
			reason, tainted = r, true
			break
		}
	}
	if !tainted {
		return
	}
	if obj := s.rootObj(sel.X); obj != nil {
		if _, ok := s.tainted[obj]; !ok {
			s.tainted[obj] = reason
		}
	}
}

// exemptField reports whether sel selects a field on the exemption list
// (tqec.Result.Breakdown).
func (s *taintScan) exemptField(sel *ast.SelectorExpr) bool {
	path, name, ok := namedType(s.pkg.Info.TypeOf(sel.X))
	return ok && path == resultPkg && name == resultName && sel.Sel.Name == resultExemptField
}

// rootObj resolves an expression to the object at the base of its
// selector/index/deref chain ("x" in x.a[i].b).
func (s *taintScan) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return s.pkg.Info.ObjectOf(x)
		case *ast.SelectorExpr:
			// A package-qualified selector roots at the package-level
			// object itself.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := s.pkg.Info.ObjectOf(id).(*types.PkgName); isPkg {
					return s.pkg.Info.ObjectOf(x.Sel)
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// taintOf reports whether e may carry a tainted value, with a human
// reason.
func (s *taintScan) taintOf(e ast.Expr) (string, bool) {
	if e == nil {
		return "", false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := s.pkg.Info.ObjectOf(e)
		if obj == nil {
			return "", false
		}
		if r, ok := s.tainted[obj]; ok {
			return r, true
		}
		if r, ok := s.assume[obj]; ok {
			return r, true
		}
		return "", false
	case *ast.SelectorExpr:
		// Reading through an exempt field yields diagnostics, not taint
		// the sinks care about.
		if s.exemptField(e) {
			return "", false
		}
		if obj := s.rootObj(e); obj != nil {
			if r, ok := s.tainted[obj]; ok {
				return r, true
			}
			if r, ok := s.assume[obj]; ok {
				return r, true
			}
		}
		return "", false
	case *ast.CallExpr:
		results := s.callResultTaint(e)
		if r, ok := results[0]; ok {
			return r, true
		}
		// Any tainted result taints a single-value use conservatively.
		for _, r := range results {
			return r, true
		}
		return "", false
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			// Receiving from a tainted channel yields tainted values.
			return s.taintOf(e.X)
		}
		return s.taintOf(e.X)
	case *ast.BinaryExpr:
		if r, ok := s.taintOf(e.X); ok {
			return r, true
		}
		return s.taintOf(e.Y)
	case *ast.StarExpr:
		return s.taintOf(e.X)
	case *ast.IndexExpr:
		if r, ok := s.taintOf(e.X); ok {
			return r, true
		}
		return "", false
	case *ast.SliceExpr:
		return s.taintOf(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if r, ok := s.taintOf(kv.Value); ok {
					return r, true
				}
				continue
			}
			if r, ok := s.taintOf(el); ok {
				return r, true
			}
		}
		return "", false
	case *ast.TypeAssertExpr:
		return s.taintOf(e.X)
	}
	return "", false
}

// callResultTaint returns the taint of each result of a call, by index.
func (s *taintScan) callResultTaint(call *ast.CallExpr) map[int]string {
	out := map[int]string{}
	// Builtins: append propagates, everything else launders (len of a map
	// is deterministic even though iteration order is not).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := s.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			if b.Name() == "append" || b.Name() == "min" || b.Name() == "max" {
				for _, arg := range call.Args {
					if r, ok := s.taintOf(arg); ok {
						out[0] = r
						return out
					}
				}
			}
			return out
		}
	}
	// Type conversions propagate.
	if tv, ok := s.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if r, ok := s.taintOf(call.Args[0]); ok {
				out[0] = r
			}
		}
		return out
	}
	// Direct sources.
	fn := calleeFunc(s.pkg.Info, call)
	if r, ok := sourceOf(fn); ok {
		out[0] = r
		return out
	}
	if r, ok := s.pointerFormat(call, fn); ok {
		out[0] = r
		return out
	}
	// Summarized callees (CHA-expanded): merge every implementation.
	summarized := false
	for _, id := range s.calleeIDs(call) {
		facts := s.store.Get(id)
		if facts == nil {
			continue
		}
		summarized = true
		for idx, reason := range facts.TaintedResults {
			if _, ok := out[idx]; !ok {
				out[idx] = fmt.Sprintf("%s (via %s)", strip(reason), shortID(id))
			}
		}
		for p, resultIdxs := range facts.ParamFlows {
			arg, ok := s.argExpr(call, fn, p)
			if !ok {
				continue
			}
			if reason, tainted := s.taintOf(arg); tainted {
				for _, idx := range resultIdxs {
					if _, ok := out[idx]; !ok {
						out[idx] = reason
					}
				}
			}
		}
	}
	// Unsummarized callees (standard library, outside the loaded set):
	// assume every result carries any taint fed in through an argument or
	// the receiver. This is what keeps time.Now().Format(...) or
	// strings built from tainted parts tainted instead of laundered.
	if !summarized && fn != nil && len(out) == 0 {
		reason, tainted := "", false
		for _, arg := range call.Args {
			if r, ok := s.taintOf(arg); ok {
				reason, tainted = r, true
				break
			}
		}
		if !tainted {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if _, isMethod := s.pkg.Info.Selections[sel]; isMethod {
					if r, ok := s.taintOf(sel.X); ok {
						reason, tainted = r, true
					}
				}
			}
		}
		if tainted {
			if sig, ok := fn.Type().(*types.Signature); ok {
				for i := 0; i < sig.Results().Len(); i++ {
					out[i] = reason
				}
			}
		}
	}
	return out
}

// pointerFormat detects fmt formatting with a %p verb: the rendered
// address is fresh per process and per allocation.
func (s *taintScan) pointerFormat(call *ast.CallExpr, fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", false
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			continue
		}
		if strings.Contains(lit.Value, "%p") {
			return "pointer address (%p formatting)", true
		}
	}
	return "", false
}

// calleeIDs resolves a call to fact-store keys, CHA-expanded when a graph
// is available.
func (s *taintScan) calleeIDs(call *ast.CallExpr) []FuncID {
	if s.graph != nil {
		return s.graph.CalleeIDs(s.pkg.Info, call)
	}
	if id := funcID(calleeFunc(s.pkg.Info, call)); id != "" {
		return []FuncID{id}
	}
	return nil
}

// argExpr maps a callee parameter index (-1 = receiver) to the call-site
// expression feeding it.
func (s *taintScan) argExpr(call *ast.CallExpr, fn *types.Func, param int) (ast.Expr, bool) {
	if param == -1 {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		return sel.X, true
	}
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() && param >= sig.Params().Len()-1 {
			// Any variadic-slot argument can feed the variadic param.
			for _, a := range call.Args[min(param, len(call.Args)):] {
				if _, tainted := s.taintOf(a); tainted {
					return a, true
				}
			}
			if param < len(call.Args) {
				return call.Args[param], true
			}
			return nil, false
		}
	}
	if param < 0 || param >= len(call.Args) {
		return nil, false
	}
	return call.Args[param], true
}

// sinkHit is one tainted value reaching a sink.
type sinkHit struct {
	pos    token.Pos
	reason string
	sink   string
	via    string
}

// sinkHits walks the function after propagation and returns every place a
// tainted expression feeds a sink parameter, a summarized sink-reaching
// callee, or a field of tqec.Result.
func (s *taintScan) sinkHits() []sinkHit {
	var hits []sinkHit
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			hits = append(hits, s.callSinkHits(n)...)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || !s.resultField(sel) {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) > i {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				if reason, ok := s.taintOf(rhs); ok {
					hits = append(hits, sinkHit{pos: rhs.Pos(), reason: reason,
						sink: "tqec.Result." + sel.Sel.Name})
				}
			}
		case *ast.CompositeLit:
			path, name, ok := namedType(s.pkg.Info.TypeOf(n))
			if !ok || path != resultPkg || name != resultName {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name == resultExemptField {
					continue
				}
				if reason, ok := s.taintOf(kv.Value); ok {
					hits = append(hits, sinkHit{pos: kv.Value.Pos(), reason: reason,
						sink: "tqec.Result." + key.Name})
				}
			}
		}
		return true
	})
	return hits
}

// resultField reports whether sel writes a non-exempt field of
// tqec.Result.
func (s *taintScan) resultField(sel *ast.SelectorExpr) bool {
	path, name, ok := namedType(s.pkg.Info.TypeOf(sel.X))
	return ok && path == resultPkg && name == resultName && sel.Sel.Name != resultExemptField
}

// callSinkHits checks one call against the direct sink registry and
// against summarized sink-reaching callees.
func (s *taintScan) callSinkHits(call *ast.CallExpr) []sinkHit {
	var hits []sinkHit
	fn := calleeFunc(s.pkg.Info, call)
	seen := map[string]bool{}
	for _, id := range s.calleeIDs(call) {
		if spec := sinkByID(id); spec != nil {
			for _, p := range spec.params {
				arg, ok := s.argExpr(call, fn, p)
				if !ok {
					continue
				}
				if reason, tainted := s.taintOf(arg); tainted && !seen[spec.desc] {
					seen[spec.desc] = true
					hits = append(hits, sinkHit{pos: arg.Pos(), reason: reason, sink: spec.desc})
				}
			}
			continue
		}
		facts := s.store.Get(id)
		if facts == nil {
			continue
		}
		for p, sinkDesc := range facts.SinkParams {
			arg, ok := s.argExpr(call, fn, p)
			if !ok {
				continue
			}
			if reason, tainted := s.taintOf(arg); tainted && !seen[sinkDesc] {
				seen[sinkDesc] = true
				hits = append(hits, sinkHit{pos: arg.Pos(), reason: reason, sink: sinkDesc, via: shortID(id)})
			}
		}
	}
	return hits
}

// outerReturns collects the function's own return statements, skipping
// nested function literals (their returns belong to the literal).
func outerReturns(fd *ast.FuncDecl) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	return out
}

// resultTaint computes which of the function's results are tainted after
// propagation: explicit return expressions plus named-result objects.
func (s *taintScan) resultTaint() map[int]string {
	out := map[int]string{}
	sig, ok := s.pkg.Info.Defs[s.fd.Name].(*types.Func)
	if !ok {
		return out
	}
	nres := sig.Type().(*types.Signature).Results().Len()
	if nres == 0 {
		return out
	}
	for _, ret := range outerReturns(s.fd) {
		if len(ret.Results) == 1 && nres > 1 {
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for idx, reason := range s.callResultTaint(call) {
					if _, ok := out[idx]; !ok {
						out[idx] = reason
					}
				}
			}
			continue
		}
		for i, e := range ret.Results {
			if i >= nres {
				break
			}
			if reason, ok := s.taintOf(e); ok {
				if _, seen := out[i]; !seen {
					out[i] = reason
				}
			}
		}
	}
	// Named results assigned anywhere in the body.
	if s.fd.Type.Results != nil {
		i := 0
		for _, field := range s.fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := s.pkg.Info.ObjectOf(name); obj != nil {
					if reason, ok := s.tainted[obj]; ok {
						if _, seen := out[i]; !seen {
							out[i] = reason
						}
					}
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	return out
}

// paramObjects returns the function's parameter objects indexed the way
// summaries index them: -1 for the receiver, then 0..n-1.
func paramObjects(pkg *Package, fd *ast.FuncDecl) map[int]types.Object {
	out := map[int]types.Object{}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		out[-1] = pkg.Info.ObjectOf(fd.Recv.List[0].Names[0])
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out[i] = pkg.Info.ObjectOf(name)
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return out
}

// identExprs widens a []*ast.Ident to []ast.Expr.
func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// strip drops an existing "(via ...)" suffix so chained propagation
// reasons do not nest unboundedly.
func strip(reason string) string {
	if i := strings.Index(reason, " (via "); i > 0 {
		return reason[:i]
	}
	return reason
}

// shortID renders a FuncID for messages: the last path element is enough
// for a human ("server.EncodeResult", "(journal.Journal).Append").
func shortID(id FuncID) string {
	s := string(id)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		return s[i+1:]
	}
	return s
}

// rangeAppendTargets returns the objects of slices appended to inside a
// map-range body that outlive the loop (declared outside it).
func rangeAppendTargets(pkg *Package, rs *ast.RangeStmt) []types.Object {
	seen := map[types.Object]bool{}
	var out []types.Object
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, isBuiltin := pkg.Info.Uses[callee].(*types.Builtin); !isBuiltin || b.Name() != "append" {
			return true
		}
		obj := pkg.Info.ObjectOf(id)
		if obj == nil || seen[obj] {
			return true
		}
		// A slice declared inside the loop body is rebuilt per iteration;
		// its order does not leak out of the range statement.
		if obj.Pos() >= rs.Body.Pos() && obj.Pos() <= rs.Body.End() {
			return true
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

// detSortFuncs are calls accepted as establishing a deterministic order.
var detSortFuncs = map[string]bool{
	"sort.Ints": true, "sort.Strings": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedAfterStmt reports whether obj is passed to a sort call after the
// range statement, anywhere in the enclosing function.
func sortedAfterStmt(pkg *Package, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		if !detSortFuncs[pkgFunc(calleeFunc(pkg.Info, call))] {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pkg.Info.ObjectOf(id) == obj {
			found = true
		}
		return true
	})
	return found
}
