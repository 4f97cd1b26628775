package lint

import (
	"go/ast"
)

// DetTaint is the interprocedural determinism-taint analyzer. It tracks
// values derived from nondeterministic sources — wall-clock reads, the
// global math/rand source, map-iteration order, %p pointer formatting,
// os.Getpid — through assignments, struct fields, channels, closures and
// function calls (via the module-wide summary facts), and reports when
// such a value reaches a canonical-encoding sink: tqec.CacheKey,
// baseline.Canonical, journal record payloads, server.EncodeResult and
// EncodePartitionedResult, or any field of tqec.Result except the
// wall-clock diagnostics Breakdown.
//
// Unlike detrand (which bans nondeterministic *control flow* in the
// seeded stages regardless of where the value goes), dettaint follows
// *data* across package boundaries: a helper in one package returning a
// time-derived string is caught when another package journals it.
//
// Known limitations: taint does not flow through control flow (a branch
// on time.Now influencing a result is invisible — that is detrand's
// residual job in the seeded stages), through calls to function values,
// or into summaries of functions outside the loaded set.
var DetTaint = &Analyzer{
	Name: "dettaint",
	Doc:  "nondeterministic values (time, global rand, map order, %p, pid) must not reach cache keys, canonical encodings, journals or tqec.Result",
	Run:  runDetTaint,
}

func runDetTaint(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scan := newTaintScan(pass.Pkg, pass.Facts, pass.Graph, fd)
			scan.propagate()
			for _, hit := range scan.sinkHits() {
				if hit.via != "" {
					pass.Reportf(hit.pos, "nondeterministic value (%s) reaches %s via %s: canonical bytes must be a pure function of circuit and options", hit.reason, hit.sink, hit.via)
					continue
				}
				pass.Reportf(hit.pos, "nondeterministic value (%s) reaches %s: canonical bytes must be a pure function of circuit and options", hit.reason, hit.sink)
			}
		}
	}
}
