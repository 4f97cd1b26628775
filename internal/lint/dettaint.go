package lint

import (
	"go/ast"
	"strings"
)

// detPackages are the stages whose output must be a pure function of their
// inputs and the explicit seed: placement SA, routing, bridge negotiation
// and benchmark-circuit generation. Reproducibility of these stages is what
// makes the paper's tables replayable.
var detPackages = []string{
	"repro/internal/place",
	"repro/internal/route",
	"repro/internal/bridge",
	"repro/internal/qc",
}

// DetTaint is the interprocedural determinism-taint analyzer. It tracks
// values derived from nondeterministic sources — wall-clock reads, the
// global math/rand source, map-iteration order, %p pointer formatting,
// os.Getpid, metrics.Histogram snapshots — through assignments, struct
// fields, channels, closures and function calls (via the module-wide
// summary facts), and reports when such a value reaches a
// canonical-encoding sink: tqec.CacheKey, baseline.Canonical, journal
// record payloads, server.EncodeResult and EncodePartitionedResult, or
// any field of tqec.Result except the Breakdown's wall-clock stage
// timings.
//
// In the seeded stages (detPackages) it also reports the act itself,
// wherever the value goes: every call to a taint source, every draw from
// the global math/rand source, and every slice accumulated over a map
// range without a later sort. There even a branch on a wall-clock read
// skews the output, and taint does not follow control flow.
//
// Known limitations: taint does not flow through control flow outside
// the seeded stages, through calls to function values, or into summaries
// of functions outside the loaded set.
var DetTaint = &Analyzer{
	Name: "dettaint",
	Doc:  "nondeterministic values (time, global rand, map order, %p, pid) must not reach cache keys, canonical encodings, journals or tqec.Result, and seeded stages (place/route/bridge/qc) read none",
	Run:  runDetTaint,
}

func inDetScope(path string) bool {
	for _, p := range detPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func runDetTaint(pass *Pass) {
	seeded := inDetScope(pass.Pkg.Path)
	for _, f := range pass.SourceFiles() {
		if seeded {
			reportSourceReads(pass, f)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scan := newTaintScan(pass.Pkg, pass.Facts, pass.Graph, fd)
			scan.propagate()
			if seeded {
				for _, site := range scan.mapOrder {
					pass.Reportf(site.rng.Pos(), "slice %q accumulates map-iteration order: sort it before use or range over sorted keys", site.obj.Name())
				}
			}
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

// reportSourceReads reports every call in f that reads a taint source.
func reportSourceReads(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Pkg.Info, call)
		reason, ok := sourceOf(fn)
		if !ok {
			return true
		}
		if fn.Pkg().Path() == "math/rand" {
			pass.Reportf(call.Pos(), "rand.%s draws from the global source: use an explicitly seeded *rand.Rand", fn.Name())
		} else {
			pass.Reportf(call.Pos(), "%s in a seeded stage: the output must be a pure function of the inputs and the seed", reason)
		}
		return true
	})
}
