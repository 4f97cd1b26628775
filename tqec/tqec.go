// Package tqec is the public API of the bridge-based TQEC circuit
// compressor: it reproduces the automated space-time-volume optimization
// flow of Tseng, Hsu, Lin and Chang (DAC'21 / TCAD), turning an arbitrary
// reversible or quantum circuit into a compacted 3D geometric description.
//
// The pipeline (Fig. 11 of the paper):
//
//	gate decomposition → ICM conversion → canonical geometric description
//	→ modularization → iterative bridging → super-module clustering
//	→ time-ordering-aware 2.5D placement (SA) → friend-net-aware routing.
//
// Compile runs the whole flow and returns every intermediate artifact plus
// the final dimensions, volume and per-stage runtime breakdown; the
// Options toggles reproduce the paper's ablations (bridging on/off for
// Table V, primal-group clustering on/off for Table III).
//
// # Fault tolerance
//
// CompileContext/CompileICMContext propagate a context.Context into every
// iterative stage (SA placement, A* negotiation, bridging), so deadlines
// and cancellation abort the pipeline within a bounded number of loop
// iterations. Failures come back as *StageError values tagging the stage
// that failed; errors.Is against the sentinel taxonomy (ErrCanceled,
// ErrUnroutable, ErrPlacementInvalid, ErrDegraded, ErrPanic) classifies
// the cause. Residual panics anywhere in a stage are recovered and
// converted into a StageError carrying the goroutine stack. A placement
// that fails validation fails the compile with ErrPlacementInvalid;
// routing failures degrade gracefully into per-net diagnostics and an
// optional whole-world fallback route (Result.Degraded,
// Routing.FailedNets) instead of aborting compilation.
package tqec

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/distill"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/icm"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/partition"
	"repro/internal/place"
	"repro/internal/qc"
	"repro/internal/route"
	"repro/internal/zx"
)

// The routing resource of an unbridged compile: its netlist keeps every
// dual segment and net, so placement leaves a wider block margin and a
// dedicated routing plane per tier face (the paper's explanation of Table
// V, "the required routing resource thus increases").
const (
	unbridgedMargin    = 2
	unbridgedTierPitch = 4
)

// Hooks lets callers observe or perturb the pipeline. The harness uses
// BeforeStage for fault injection (forced errors, panics, cancellation).
type Hooks struct {
	// BeforeStage runs before each stage; a non-nil return aborts the
	// pipeline with that error tagged by the stage.
	BeforeStage func(stage Stage) error
}

// Options configures a compilation.
type Options struct {
	// Bridging enables the iterative bridging stage (disable to
	// reproduce the paper's "w/o bridging" ablation, Table V). An
	// unbridged netlist needs more routing resource, so with Bridging off
	// the pipeline places with Place.Margin 2 and Place.TierPitch 4,
	// whatever those fields hold.
	Bridging bool
	// ZX enables the ZX-calculus pre-compression pass on the decomposed
	// circuit before ICM conversion (disable for the paper-faithful
	// ablation). The pass is self-checking: it keeps the original
	// decomposition unless the rewritten one strictly lowers the
	// canonical space-time volume, so enabling it never worsens the
	// result (see internal/zx).
	ZX bool
	// PrimalGroups enables primal-group super-modules (disable to
	// reproduce the conference version [36], Table III).
	PrimalGroups bool
	// NoBoxes skips distillation-box attachment: injections are treated
	// as raw state injections (used when compressing a distillation
	// circuit itself).
	NoBoxes bool
	// StrictRouting turns residual routing failures (nets unroutable
	// even by the whole-world fallback) into an ErrUnroutable
	// compilation error instead of a degraded result.
	StrictRouting bool
	// Hooks are observation/fault-injection callbacks.
	Hooks Hooks
	// Place configures the SA placement engine.
	Place place.Options
	// Route configures the dual-defect net router.
	Route route.Options
	// Partition configures the qubit-interaction-graph partitioner used
	// by CompilePartitionedContext: a positive MaxQubitsPerPart splits
	// the decomposed circuit into independently compiled sub-circuits
	// stitched into disjoint time slabs (see internal/partition).
	// CompileContext ignores it; CompilePartitionedContext with a
	// non-positive cap behaves exactly like CompileContext.
	Partition partition.Options
}

// DefaultOptions returns the journal-version flow with the paper's SA
// parameterization (2000 iterations).
func DefaultOptions() Options {
	return Options{
		Bridging:     true,
		ZX:           true,
		PrimalGroups: true,
		Place:        place.DefaultOptions(),
		Route:        route.DefaultOptions(),
	}
}

// FastOptions returns a reduced-effort configuration suitable for tests
// and quick exploration (a few thousand SA moves instead of the automatic
// 200-per-node budget).
func FastOptions() Options {
	o := DefaultOptions()
	o.Place.Iterations = 5000
	return o
}

// Result carries every artifact of a compilation.
type Result struct {
	// Input and intermediate representations.
	Circuit    *qc.Circuit
	Decomposed *qc.Circuit
	ICM        *icm.Circuit
	Canonical  *canonical.Description
	Netlist    *modular.Netlist
	Bridging   *bridge.Result
	Clustering *cluster.Clustering
	Placement  *place.Placement
	Routing    *route.Result

	// Dims are the final W/H/D extents of the compressed description
	// (module bodies, distillation boxes and routed nets).
	Dims metrics.Dims
	// Volume is the final space-time volume W×H×D. Distillation boxes
	// are integrated into the layout, so no separate box volume is added
	// (Table II's "Ours" column).
	Volume int
	// CanonicalVolume is the canonical-form volume of the same circuit.
	CanonicalVolume int
	// BoxVolume is the lower-bound distillation box volume (Vol_|Y⟩ +
	// Vol_|A⟩ of Table I), used when comparing against baselines that do
	// not integrate boxes.
	BoxVolume int
	// PlacementAttempts is how many SA placements ran: always 1, since a
	// placement that fails validation fails the compile.
	PlacementAttempts int
	// Degraded reports that routing fell back to degraded operation:
	// some nets needed the whole-world fallback router or remain
	// unrouted (see Routing.FailedNets for per-net diagnostics).
	Degraded bool
	// Breakdown is the per-stage wall-clock breakdown (Table VI), plus
	// fault-tolerance event counters (fallbacks, panics).
	Breakdown *metrics.Breakdown
}

// CompressionRatio returns canonical volume over final volume (how many
// times smaller the compressed description is).
func (r *Result) CompressionRatio() float64 {
	if r.Volume == 0 {
		return 0
	}
	return float64(r.CanonicalVolume+r.BoxVolume) / float64(r.Volume)
}

// Compile runs the full compression flow on a reversible/quantum circuit.
func Compile(c *qc.Circuit, opts Options) (*Result, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; CompileContext is the threaded variant
	return CompileContext(context.Background(), c, opts)
}

// CompileContext is Compile with cancellation: ctx deadlines and cancels
// abort the SA, negotiation and bridging loops within a bounded number of
// iterations, returning a StageError wrapping ErrCanceled.
func CompileContext(ctx context.Context, c *qc.Circuit, opts Options) (*Result, error) {
	res := &Result{Circuit: c, Breakdown: metrics.NewBreakdown()}
	err := runStage(res.Breakdown, metrics.StageOther, StagePreprocess, opts.Hooks, func() error {
		if err := faults.Canceled(ctx); err != nil {
			return err
		}
		d, err := decompose.Decompose(c)
		if err != nil {
			return err
		}
		res.Decomposed = d.Circuit
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opts.ZX {
		err = runStage(res.Breakdown, metrics.StageZX, StageZXRewrite, opts.Hooks, func() error {
			if err := faults.Canceled(ctx); err != nil {
				return err
			}
			red, st, err := zx.Optimize(res.Decomposed)
			if err != nil {
				return err
			}
			res.Decomposed = red
			res.Breakdown.Count(metrics.CounterZXGatesBefore, st.GatesBefore)
			res.Breakdown.Count(metrics.CounterZXGatesAfter, st.GatesAfter)
			res.Breakdown.Count(metrics.CounterZXRewrites, st.Rewrites)
			if !st.Applied {
				res.Breakdown.Count(metrics.CounterZXFallbacks, 1)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	err = runStage(res.Breakdown, metrics.StageOther, StagePreprocess, opts.Hooks, func() error {
		var err error
		res.ICM, err = icm.FromDecomposed(res.Decomposed)
		return err
	})
	if err != nil {
		return nil, err
	}
	return compileFrom(ctx, res, opts)
}

// CompileICM runs the flow on a circuit already in ICM form (e.g. the
// state distillation circuits of package distill, the workloads Fowler &
// Devitt compressed by hand).
func CompileICM(ic *icm.Circuit, opts Options) (*Result, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; CompileICMContext is the threaded variant
	return CompileICMContext(context.Background(), ic, opts)
}

// CompileICMContext is CompileICM with cancellation (see CompileContext).
func CompileICMContext(ctx context.Context, ic *icm.Circuit, opts Options) (*Result, error) {
	res := &Result{ICM: ic, Breakdown: metrics.NewBreakdown()}
	return compileFrom(ctx, res, opts)
}

// runStage executes one pipeline stage under the fault-containment guard:
// the Hooks.BeforeStage callback fires first, fn's wall-clock is charged
// to the breakdown stage mStage, any panic is recovered into a StageError
// wrapping ErrPanic with the stack attached, and plain errors are tagged
// with the stage and normalized for the cancellation sentinel.
func runStage(b *metrics.Breakdown, mStage string, stage Stage, hooks Hooks, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			b.Count(metrics.CounterRecoveredPanics, 1)
			err = &StageError{
				Stage: stage,
				Err:   fmt.Errorf("%w: %v", ErrPanic, r),
				Stack: debug.Stack(),
			}
		}
	}()
	if hooks.BeforeStage != nil {
		if herr := hooks.BeforeStage(stage); herr != nil {
			return stageError(stage, herr)
		}
	}
	var inner error
	b.Time(mStage, func() { inner = fn() })
	if inner != nil {
		return stageError(stage, inner)
	}
	return nil
}

// withRoutingResource applies the unbridged routing resource (see
// Options.Bridging); bridged options pass through unchanged.
func withRoutingResource(opts Options) Options {
	if !opts.Bridging {
		opts.Place.Margin = unbridgedMargin
		opts.Place.TierPitch = unbridgedTierPitch
	}
	return opts
}

// compileFrom continues the pipeline after res.ICM is set.
func compileFrom(ctx context.Context, res *Result, opts Options) (*Result, error) {
	opts = withRoutingResource(opts)
	// Canonical description and modularization (charged to "other" per
	// Table VI).
	err := runStage(res.Breakdown, metrics.StageOther, StagePreprocess, opts.Hooks, func() error {
		if err := faults.Canceled(ctx); err != nil {
			return err
		}
		var err error
		if res.Canonical, err = canonical.Build(res.ICM); err != nil {
			return err
		}
		res.Netlist, err = modular.Build(res.Canonical)
		return err
	})
	if err != nil {
		return nil, err
	}
	stats := res.ICM.Stats()
	res.CanonicalVolume = res.Canonical.Volume()
	res.BoxVolume = distill.BoxVolume(stats.NumY, stats.NumA)

	err = runStage(res.Breakdown, metrics.StageBridging, StageBridging, opts.Hooks, func() error {
		var err error
		res.Bridging, err = bridge.RunContext(ctx, res.Netlist, opts.Bridging)
		return err
	})
	if err != nil {
		return nil, err
	}

	err = runStage(res.Breakdown, metrics.StagePlacement, StagePlacement, opts.Hooks, func() error {
		cl, err := cluster.Build(res.Netlist, cluster.Options{
			PrimalGroups: opts.PrimalGroups,
			NoBoxes:      opts.NoBoxes,
		})
		if err != nil {
			return err
		}
		res.Clustering = cl
		pl, err := place.RunContext(ctx, cl, res.Bridging.Nets, opts.Place)
		if err != nil {
			return err
		}
		res.Placement, res.PlacementAttempts = pl, 1
		if err := pl.CheckNoOverlap(); err != nil {
			return fmt.Errorf("%w: %w", faults.ErrPlacementInvalid, err)
		}
		if err := pl.CheckTimeOrdering(); err != nil {
			return fmt.Errorf("%w: %w", faults.ErrPlacementInvalid, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = runStage(res.Breakdown, metrics.StageRouting, StageRouting, opts.Hooks, func() error {
		var err error
		res.Routing, err = route.RunContext(ctx, res.Placement, withRouteClock(opts.Route))
		if err != nil {
			return err
		}
		res.Degraded = res.Routing.Degraded
		return tallyRouting(res.Breakdown, res.Routing, opts.StrictRouting, "net(s)")
	})
	if err != nil {
		return nil, err
	}
	res.Dims, res.Volume = boxDims(res.Routing.Bounds)
	return res, nil
}

// withRouteClock returns ropts with a monotonic Clock injected when it has
// none, so the router can attribute time to its sub-stages without reading
// the wall clock itself (the route package is inside the dettaint
// determinism scope).
func withRouteClock(ropts route.Options) route.Options {
	if ropts.Clock == nil {
		start := time.Now()
		ropts.Clock = func() time.Duration { return time.Since(start) }
	}
	return ropts
}

// tallyRouting counts r's fallback, unrouted and degraded nets in b and,
// under StrictRouting, fails a routing that left nets unrouted; nets names
// those nets in the error.
func tallyRouting(b *metrics.Breakdown, r *route.Result, strict bool, nets string) error {
	if n := len(r.FallbackNets); n > 0 {
		b.Count(metrics.CounterFallbackNets, n)
	}
	if n := len(r.Failed); n > 0 {
		b.Count(metrics.CounterUnroutedNets, n)
		if strict {
			return fmt.Errorf("%w: %d %s failed negotiation and fallback", faults.ErrUnroutable, n, nets)
		}
	}
	if r.Degraded {
		b.Count(metrics.CounterDegradations, 1)
	}
	return nil
}

// boxDims measures routing bounds: W along y, H along z, D along x, and
// the volume W×H×D.
func boxDims(b geom.Box) (metrics.Dims, int) {
	d := metrics.Dims{W: b.Dy(), H: b.Dz(), D: b.Dx()}
	return d, d.Volume()
}

// CompileBenchmark generates one of the paper's RevLib benchmarks and
// compiles it.
func CompileBenchmark(name string, opts Options) (*Result, error) {
	spec, err := qc.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	c, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	return Compile(c, opts)
}

// Verify re-checks the result's structural guarantees: placement overlap
// freedom, time-ordering constraints, and routing legality. Degraded
// routing (fallback-routed or unrouted nets) fails verification with
// ErrDegraded/ErrUnroutable so a silently-degraded result cannot pass.
// It is meant for tests and examples; Compile's stages already maintain
// these invariants.
func (r *Result) Verify() error {
	if err := r.Netlist.Validate(); err != nil {
		return err
	}
	if err := r.Placement.CheckNoOverlap(); err != nil {
		return err
	}
	if err := r.Placement.CheckTimeOrdering(); err != nil {
		return err
	}
	return route.Verify(r.Placement, r.Routing)
}
