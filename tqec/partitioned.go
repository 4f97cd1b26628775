package tqec

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/decompose"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/qc"
	"repro/internal/route"
)

// slabGap is the empty time-axis spacing between adjacent part slabs: at
// least 2 so seam pin cells on the facing slab boundaries can never
// coincide, and wide enough that seam routes have slack to fan out
// between slabs without detouring around the hull.
const slabGap = 4

// PartitionedResult carries a partitioned compilation: the qubit cut,
// each part's full compilation artifact, the disjoint time slabs the
// parts were translated into, and the routed seam nets stitching them.
type PartitionedResult struct {
	// Partition is the qubit-interaction-graph cut.
	Partition *partition.Result
	// Parts holds each sub-circuit's compilation, aligned with
	// Partition.Parts. A part with nothing to lay out (no gates, or gates
	// that all cancel) has a nil entry and occupies a unit slab.
	Parts []*Result
	// Slabs are the parts' routing bounds translated into disjoint
	// time-axis slabs (slab i starts where slab i-1 ended plus slabGap),
	// aligned with Parts.
	Slabs []geom.Box
	// SeamNets are the stitched nets, one per Partition.Seams entry in
	// order: endpoints sit on the z=-1 plane outside every slab, at the
	// facing time-boundaries of the two slabs the cut CNOT couples.
	SeamNets []route.SeamNet
	// SeamRouting is the negotiated-A* result for SeamNets; nil when the
	// partition produced no seams.
	SeamRouting *route.Result

	// Dims and Volume measure the combined extent: every slab, every
	// seam route and every seam pin.
	Dims   metrics.Dims
	Volume int
	// CanonicalVolume and BoxVolume sum the parts' values (seam CNOTs
	// belong to no part, so the sums exclude their canonical slots).
	CanonicalVolume int
	BoxVolume       int
	// PlacementAttempts sums the parts' PlacementAttempts, each always 1,
	// so it counts the parts that ran a placement.
	PlacementAttempts int
	// Degraded reports degraded routing in any part or in the seam
	// stitching.
	Degraded bool
	// PassThrough marks a compile that never split: the circuit fit
	// MaxQubitsPerPart (or the cap was non-positive), so Parts holds the
	// single ordinary compilation.
	PassThrough bool
	// Breakdown aggregates the per-stage wall-clock of every part
	// (concurrent parts sum to more than elapsed time) plus the
	// partition and stitch stages, and the parts' event counters.
	Breakdown *metrics.Breakdown
}

// CompilePartitionedContext splits the decomposed circuit along its
// qubit-interaction graph (opts.Partition), compiles every part
// concurrently through the ordinary CompileContext pipeline, translates
// each part's geometry into its own time slab, and routes one seam net
// per cut CNOT across the slab gaps with the negotiated-A* router. With
// a non-positive MaxQubitsPerPart — or a circuit already within the cap —
// it degenerates to a single CompileContext call wrapped as a
// pass-through result.
//
// The combined result is deterministic for a fixed (circuit, Options)
// pair: the cut is seeded, every part compiles with the same seeds an
// unpartitioned compile would use, parts are stitched in part order, and
// seam routing is deterministic for identical inputs.
func CompilePartitionedContext(ctx context.Context, c *qc.Circuit, opts Options) (*PartitionedResult, error) {
	pres := &PartitionedResult{Breakdown: metrics.NewBreakdown()}
	err := runStage(pres.Breakdown, metrics.StagePartition, StagePartition, opts.Hooks, func() error {
		if err := faults.Canceled(ctx); err != nil {
			return err
		}
		d, err := decompose.Decompose(c)
		if err != nil {
			return err
		}
		pres.Partition, err = partition.Partition(d.Circuit, opts.Partition)
		return err
	})
	if err != nil {
		return nil, err
	}

	partOpts := opts
	partOpts.Partition = partition.Options{}
	if pres.Partition.PassThrough {
		inner, err := CompileContext(ctx, c, partOpts)
		if err != nil {
			return nil, err
		}
		pres.Parts = []*Result{inner}
		pres.Slabs = []geom.Box{inner.Routing.Bounds}
		pres.Dims, pres.Volume = inner.Dims, inner.Volume
		pres.CanonicalVolume, pres.BoxVolume = inner.CanonicalVolume, inner.BoxVolume
		pres.PlacementAttempts = inner.PlacementAttempts
		pres.Degraded = inner.Degraded
		pres.PassThrough = true
		mergeBreakdown(pres.Breakdown, inner.Breakdown)
		return pres, nil
	}

	// Compile every part concurrently. Each part runs the full pipeline
	// with the same option set (the partitioner cleared), so a part
	// compiles exactly as it would standalone.
	pres.Parts = make([]*Result, len(pres.Partition.Parts))
	errs := make([]error, len(pres.Partition.Parts))
	var wg sync.WaitGroup
	for i := range pres.Partition.Parts {
		wg.Add(1)
		go func(i int, pc *qc.Circuit) {
			defer wg.Done()
			pres.Parts[i], errs[i] = CompileContext(ctx, pc, partOpts)
		}(i, pres.Partition.Parts[i].Circuit)
	}
	wg.Wait()
	var empty error
	for i, err := range errs {
		if errors.Is(err, ErrEmpty) {
			// The part has nothing to lay out: it has no gates (its qubits
			// interact only across seams), or they all canceled during
			// rewriting (e.g. a self-inverse CNOT pair isolated by the
			// cut). It occupies no volume and gets a unit slab.
			empty = err
		} else if err != nil {
			return nil, fmt.Errorf("tqec: part %d: %w", i, err)
		}
	}
	for _, part := range pres.Parts {
		if part == nil {
			continue
		}
		pres.CanonicalVolume += part.CanonicalVolume
		pres.BoxVolume += part.BoxVolume
		pres.PlacementAttempts += part.PlacementAttempts
		pres.Degraded = pres.Degraded || part.Degraded
		mergeBreakdown(pres.Breakdown, part.Breakdown)
	}
	if pres.PlacementAttempts == 0 && len(pres.Partition.Seams) == 0 && empty != nil {
		// No part has anything to lay out and no seam joins them, so the
		// circuit as a whole is empty: fail as the pass-through compile
		// of it does, instead of stitching placeholder slabs.
		return nil, empty
	}

	err = runStage(pres.Breakdown, metrics.StageStitch, StageStitch, opts.Hooks, func() error {
		if err := faults.Canceled(ctx); err != nil {
			return err
		}
		return pres.stitch(ctx, opts)
	})
	if err != nil {
		return nil, err
	}
	return pres, nil
}

// stitch translates each part's routing bounds into its time slab, builds
// one seam net per cut CNOT on the z=-1 plane at the facing slab
// boundaries, and routes them. It fills Slabs, SeamNets, SeamRouting and
// the combined Dims/Volume.
func (pres *PartitionedResult) stitch(ctx context.Context, opts Options) error {
	pres.Slabs = make([]geom.Box, len(pres.Parts))
	curX := 0
	for i, part := range pres.Parts {
		if part == nil {
			// Seam-only part: a unit placeholder slab so its seam pins
			// have a boundary to attach to.
			pres.Slabs[i] = geom.CellBox(geom.Pt(curX, 0, 0))
		} else {
			b := part.Routing.Bounds
			pres.Slabs[i] = b.Translate(geom.Pt(curX-b.Min.X, -b.Min.Y, -b.Min.Z))
		}
		curX = pres.Slabs[i].Max.X + slabGap
	}
	base := pres.Slabs[0]
	for _, s := range pres.Slabs[1:] {
		base = base.Union(s)
	}

	if len(pres.Partition.Seams) == 0 {
		pres.Dims, pres.Volume = boxDims(base)
		return nil
	}

	// One net per seam, rank-indexed: pins sit on the z=-1 plane (below
	// every slab, whose extents start at z=0) at the facing time
	// boundaries, with the seam's rank as the y coordinate so no two
	// seams share a pin cell.
	pres.SeamNets = make([]route.SeamNet, len(pres.Partition.Seams))
	for r, s := range pres.Partition.Seams {
		a, b := pres.Slabs[s.ControlPart], pres.Slabs[s.TargetPart]
		pres.SeamNets[r] = route.SeamNet{
			ID: r,
			A:  geom.Pt(a.Max.X, r, -1),
			B:  geom.Pt(b.Min.X-1, r, -1),
		}
	}
	sr, err := route.RouteSeams(ctx, pres.Slabs, pres.SeamNets, base, withRouteClock(opts.Route))
	if err != nil {
		return err
	}
	pres.SeamRouting = sr
	pres.Degraded = pres.Degraded || sr.Degraded
	if err := tallyRouting(pres.Breakdown, sr, opts.StrictRouting, "seam net(s)"); err != nil {
		return err
	}
	pres.Dims, pres.Volume = boxDims(sr.Bounds)
	return nil
}

// CompressionRatio returns the summed canonical volume over the combined
// final volume (see Result.CompressionRatio).
func (pres *PartitionedResult) CompressionRatio() float64 {
	if pres.Volume == 0 {
		return 0
	}
	return float64(pres.CanonicalVolume+pres.BoxVolume) / float64(pres.Volume)
}

// Verify re-checks the structural guarantees of every layer: each part's
// ordinary Result.Verify, pairwise slab disjointness, and — when seams
// were routed — the seam nets' structural legality and completeness
// (route.VerifySeams). Like Result.Verify, a degraded stitching fails.
func (pres *PartitionedResult) Verify() error {
	for i, part := range pres.Parts {
		if part == nil {
			continue
		}
		if err := part.Verify(); err != nil {
			return fmt.Errorf("tqec: part %d: %w", i, err)
		}
	}
	for i := range pres.Slabs {
		for j := i + 1; j < len(pres.Slabs); j++ {
			if pres.Slabs[i].Intersects(pres.Slabs[j]) {
				return fmt.Errorf("tqec: slabs %d and %d overlap: %v, %v", i, j, pres.Slabs[i], pres.Slabs[j])
			}
		}
	}
	if pres.SeamRouting != nil {
		if err := route.VerifySeams(pres.Slabs, pres.SeamNets, pres.SeamRouting); err != nil {
			return err
		}
	}
	return nil
}

// mergeBreakdown folds src's stage durations and event counters into dst.
func mergeBreakdown(dst, src *metrics.Breakdown) {
	for _, st := range src.Stages() {
		dst.Add(st, src.Get(st))
	}
	for _, cn := range src.Counters() {
		dst.Count(cn, src.Counter(cn))
	}
}
