// Package lint implements tqeclint, the repo's stdlib-only static-analysis
// driver. It loads typed ASTs for a set of packages (see load.go) and runs a
// registry of repo-specific analyzers over them, reporting findings as
// "file:line:col: [analyzer] message". The analyzers enforce the pipeline's
// correctness invariants — panic-freedom, context threading, error
// propagation, deterministic randomness and geometry encapsulation — that
// are otherwise held only by convention.
//
// The driver is deliberately built on the standard library alone
// (go/parser, go/ast, go/types, go/importer): the repo's stdlib-only rule
// applies to its tooling too. Findings may be suppressed per line with a
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// directive, either trailing the offending line or on the line directly
// above it. The reason is mandatory; a malformed directive is itself
// reported as a finding of the pseudo-analyzer "lint".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one analyzer report, addressable by file position.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
}

// String formats the finding in the canonical "file:line:col: [analyzer]
// message" shape used by the CLI and the test harnesses.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/route").
	Path string
	// Name is the package name; "main" marks command packages, which some
	// analyzers treat more leniently (process exit, root contexts).
	Name string
	// Dir is the directory holding the source files.
	Dir string
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the parsed source files (comments included).
	Files []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// Info carries the typechecker's expression and object resolutions.
	Info *types.Info
}

// IsMain reports whether the package is a command (package main).
func (p *Package) IsMain() bool { return p.Name == "main" }

// TestFile reports whether f is a _test.go file. Analyzers skip test files:
// tests may panic, use ad-hoc contexts and discard errors freely.
func (p *Package) TestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// ownsFile reports whether the named file is one of the package's parsed
// sources — used to anchor module-wide findings (lock-order inversions) to
// exactly one reporting package.
func (p *Package) ownsFile(file string) bool {
	for _, f := range p.Files {
		if p.Fset.Position(f.Package).Filename == file {
			return true
		}
	}
	return false
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the registry key, used in findings and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run applies the check to one package, reporting through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) pairing through a run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// Facts is the module-wide function-summary store (taint, panic,
	// lock and goroutine-lifecycle facts), populated bottom-up before any
	// analyzer runs. Nil-safe through its methods.
	Facts *FactStore
	// Graph is the CHA call graph over every loaded package, nil when the
	// driver ran without one (single-fixture tests).
	Graph *CallGraph

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
	})
}

// reportAt records a finding at an explicit file:line — for checks whose
// anchor position came from the fact layer (a LockPair site) rather than
// a live token.Pos.
func (p *Pass) reportAt(file string, line int, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		File:     file,
		Line:     line,
		Col:      1,
	})
}

// TypeOf returns the static type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// SourceFiles returns the package's non-test files — the surface the
// analyzers police.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Pkg.Files {
		if !p.Pkg.TestFile(f) {
			out = append(out, f)
		}
	}
	return out
}

// Analyzers returns the full registry in reporting order. Every analyzer
// here runs in `make lint`, in the tqeclint CLI default set, and in the
// self-check test that keeps CI and the CLI in lockstep. dettaint, goleak
// and lockcheck are interprocedural, consuming the call graph and fact
// store RunAnalyzers builds before any analyzer runs; the other six are
// per-package syntactic/typed checks.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoPanic, CtxFlow, ErrDiscard, DetTaint, GoLeak, LockCheck, CtxSleep, GeomBounds, DocComment}
}

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// AnalyzerStat aggregates one analyzer's work across a run.
type AnalyzerStat struct {
	Name     string        `json:"name"`
	Findings int           `json:"findings"`
	Duration time.Duration `json:"duration_ns"`
}

// RunStats is the run's timing breakdown, published by the CLI to the CI
// job summary.
type RunStats struct {
	Packages      int            `json:"packages"`
	Analyzers     []AnalyzerStat `json:"analyzers"`
	FactsDuration time.Duration  `json:"facts_duration_ns"`
	TotalDuration time.Duration  `json:"total_duration_ns"`
}

// RunAnalyzers builds the module-wide call graph and fact store, applies
// the analyzers to every package, drops findings covered by //lint:ignore
// directives, and returns the rest sorted by position. Malformed and
// no-longer-matching directives surface as "lint" findings so neither a
// typo nor a stale exemption can silently disable a check.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunAnalyzersStats(pkgs, analyzers)
	return findings
}

// RunAnalyzersStats is RunAnalyzers plus per-analyzer timing.
func RunAnalyzersStats(pkgs []*Package, analyzers []*Analyzer) ([]Finding, *RunStats) {
	start := time.Now()
	stats := &RunStats{Packages: len(pkgs)}
	graph := BuildCallGraph(pkgs)
	store := NewFactStore()
	ComputeFacts(store, graph, pkgs)
	stats.FactsDuration = time.Since(start)

	stats.Analyzers = make([]AnalyzerStat, len(analyzers))
	runSet := map[string]bool{}
	byName := map[string]*AnalyzerStat{}
	for i, a := range analyzers {
		runSet[a.Name] = true
		stats.Analyzers[i].Name = a.Name
		byName[a.Name] = &stats.Analyzers[i]
	}
	var all []Finding
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		all = append(all, sup.malformed...)
		var raw []Finding
		for _, a := range analyzers {
			began := time.Now()
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Facts: store, Graph: graph, findings: &raw})
			byName[a.Name].Duration += time.Since(began)
		}
		for _, f := range raw {
			if !sup.covers(f) {
				all = append(all, f)
				byName[f.Analyzer].Findings++
			}
		}
		all = append(all, sup.audit(runSet)...)
	}
	sortFindings(all)
	stats.TotalDuration = time.Since(start)
	return all, stats
}

// sortFindings orders findings by file, line, column, analyzer.
func sortFindings(all []Finding) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// type conversions and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgFunc names a package-level function as "importpath.Name"; it returns
// "" for methods and unresolved callees so bans match only true package
// functions (a method named Fatal on a local type is not log.Fatal).
func pkgFunc(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// namedType unwraps pointers and reports the named type's package path and
// name, or ok=false for unnamed types.
func namedType(t types.Type) (pkgPath, name string, ok bool) {
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil {
		return "", "", false
	}
	return n.Obj().Pkg().Path(), n.Obj().Name(), true
}
