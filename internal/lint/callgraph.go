package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"sort"
	"strings"
)

// FuncID is the stable identity of a function across the module:
// "pkgpath.Name" for package functions, "(pkgpath.Recv).Name" for methods
// (pointer receivers included under the same ID as their value form,
// since facts describe behaviour, not call shape). It is the key of the
// fact store and of call-graph nodes.
type FuncID string

// funcID canonicalizes fn. It returns "" for nil, builtins and functions
// without a package (error.Error and friends).
func funcID(fn *types.Func) FuncID {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		path, name, ok := namedType(recv.Type())
		if !ok {
			// Interface receivers canonicalize through the interface's
			// own named type when there is one; anonymous shapes get no
			// identity and stay out of the fact store.
			return ""
		}
		return FuncID(fmt.Sprintf("(%s.%s).%s", path, name, fn.Name()))
	}
	return FuncID(fn.Pkg().Path() + "." + fn.Name())
}

// CallGraph is a CHA-style (class-hierarchy analysis) call graph over the
// loaded packages: static calls resolve to their single callee, and calls
// through an interface method resolve to that method on every loaded
// concrete type whose method set satisfies the interface. Calls through
// plain function values have no callee nodes; callers carry a Dynamic
// marker instead so downstream analyses know the edge set is incomplete
// there.
type CallGraph struct {
	// Nodes maps every function with a body in the loaded set.
	Nodes map[FuncID]*CallNode
	// methodIndex maps a method name to the loaded concrete methods
	// bearing it, the candidate set CHA filters with types.Implements.
	methodIndex map[string][]*types.Func
}

// CallNode is one function in the graph.
type CallNode struct {
	ID   FuncID
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees are the resolved outgoing edges, sorted and deduplicated.
	Callees []FuncID
	// Dynamic reports that the body also calls through function values,
	// so Callees underapproximates the true out-edges.
	Dynamic bool
}

// BuildCallGraph indexes every function declaration in pkgs and resolves
// the call edges, expanding interface-method calls by CHA.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:       map[FuncID]*CallNode{},
		methodIndex: map[string][]*types.Func{},
	}
	// Pass 1: nodes and the concrete-method index.
	for _, pkg := range pkgs {
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
				g.Nodes[id] = &CallNode{ID: id, Fn: fn, Decl: fd, Pkg: pkg}
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
					if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); !isIface {
						g.methodIndex[fn.Name()] = append(g.methodIndex[fn.Name()], fn)
					}
				}
			}
		}
	}
	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := g.Nodes[funcID(fn)]
				if node == nil {
					continue
				}
				seen := map[FuncID]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callees, dynamic := g.resolve(pkg.Info, call)
					if dynamic {
						node.Dynamic = true
					}
					for _, c := range callees {
						if id := funcID(c); id != "" && !seen[id] {
							seen[id] = true
							node.Callees = append(node.Callees, id)
						}
					}
					return true
				})
				sort.Slice(node.Callees, func(i, j int) bool { return node.Callees[i] < node.Callees[j] })
			}
		}
	}
	return g
}

// resolve returns the possible callees of call. Static calls yield one
// function; interface-method calls yield every CHA implementation;
// builtin calls and type conversions yield none; calls through function
// values yield none and set dynamic.
func (g *CallGraph) resolve(info *types.Info, call *ast.CallExpr) ([]*types.Func, bool) {
	if fn := calleeFunc(info, call); fn != nil {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			if iface, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				return g.implementations(iface, fn.Name()), false
			}
		}
		return []*types.Func{fn}, false
	}
	// Distinguish conversions and builtins from true dynamic calls.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch info.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName, nil:
			return nil, false
		}
	case *ast.SelectorExpr:
		if _, isType := info.Uses[fun.Sel].(*types.TypeName); isType {
			return nil, false
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.StarExpr, *ast.InterfaceType:
		return nil, false
	case *ast.FuncLit:
		// An immediately-invoked literal runs inline; its body is walked
		// as part of the enclosing function, so no edge is needed.
		return nil, false
	}
	return nil, true
}

// implementations returns method `name` on every loaded concrete type
// whose method set satisfies iface.
func (g *CallGraph) implementations(iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, m := range g.methodIndex[name] {
		recv := m.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			out = append(out, m)
		}
	}
	return out
}

// CalleeIDs resolves one call expression to fact-store keys, CHA-expanded.
func (g *CallGraph) CalleeIDs(info *types.Info, call *ast.CallExpr) []FuncID {
	fns, _ := g.resolve(info, call)
	var out []FuncID
	for _, fn := range fns {
		if id := funcID(fn); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// Dump writes the graph as sorted "caller -> callee" lines, one edge per
// line, with dynamic callers marked. The tqeclint -graph flag serves it as
// a debugging view of what the interprocedural analyses can and cannot
// see.
func (g *CallGraph) Dump(w io.Writer) error {
	ids := make([]string, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		node := g.Nodes[FuncID(id)]
		marker := ""
		if node.Dynamic {
			marker = " [+dynamic]"
		}
		if len(node.Callees) == 0 {
			if _, err := fmt.Fprintf(w, "%s -> (leaf)%s\n", id, marker); err != nil {
				return err
			}
			continue
		}
		var b strings.Builder
		for i, c := range node.Callees {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(string(c))
		}
		if _, err := fmt.Fprintf(w, "%s -> %s%s\n", id, b.String(), marker); err != nil {
			return err
		}
	}
	return nil
}
