package check

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/ccache"
	"repro/internal/decompose"
	"repro/internal/partition"
	"repro/internal/place"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/tqec"
)

// DiffChains cross-checks the placement engine's determinism contract:
// two runs with the same (seed, chains=K) configuration must be
// bit-identical, and the single-chain configuration (specified to match
// the sequential annealer exactly) must produce a structurally legal
// placement of the same clustering.
func DiffChains(ctx context.Context, res *tqec.Result, opts tqec.Options, chains int) error {
	popts := opts.Place
	popts.Chains = chains
	first, err := place.RunContext(ctx, res.Clustering, res.Bridging.Nets, popts)
	if err != nil {
		return fmt.Errorf("chains=%d run 1: %w", chains, err)
	}
	second, err := place.RunContext(ctx, res.Clustering, res.Bridging.Nets, popts)
	if err != nil {
		return fmt.Errorf("chains=%d run 2: %w", chains, err)
	}
	if err := samePlacement(first, second); err != nil {
		return fmt.Errorf("chains=%d reruns diverge: %w", chains, err)
	}
	popts.Chains = 1
	seq, err := place.RunContext(ctx, res.Clustering, res.Bridging.Nets, popts)
	if err != nil {
		return fmt.Errorf("chains=1: %w", err)
	}
	if err := seq.CheckNoOverlap(); err != nil {
		return fmt.Errorf("chains=1: %w", err)
	}
	if err := seq.CheckTimeOrdering(); err != nil {
		return fmt.Errorf("chains=1: %w", err)
	}
	return nil
}

// samePlacement compares two placements for bit-identical geometry.
func samePlacement(a, b *place.Placement) error {
	if a.Tiers != b.Tiers {
		return fmt.Errorf("tiers %d vs %d", a.Tiers, b.Tiers)
	}
	if a.WireLength != b.WireLength {
		return fmt.Errorf("wirelength %d vs %d", a.WireLength, b.WireLength)
	}
	if len(a.Pos) != len(b.Pos) {
		return fmt.Errorf("%d vs %d supers", len(a.Pos), len(b.Pos))
	}
	for s := range a.Pos {
		if a.Pos[s] != b.Pos[s] {
			return fmt.Errorf("super %d at %v vs %v", s, a.Pos[s], b.Pos[s])
		}
		if a.TierOf[s] != b.TierOf[s] {
			return fmt.Errorf("super %d on tier %d vs %d", s, a.TierOf[s], b.TierOf[s])
		}
	}
	return nil
}

// diffCacheBudget bounds the scratch cache used by DiffCacheBytes; any
// real compile payload fits comfortably.
const diffCacheBudget = 1 << 24

// DiffCacheBytes cross-checks the compile service's content-addressed
// caching: a fresh compile routed through the cache must miss, the repeat
// must hit, and both payloads must be byte-identical to encoding the
// result under test directly — the property that makes serving cached
// bytes indistinguishable from recompiling.
func DiffCacheBytes(ctx context.Context, res *tqec.Result, opts tqec.Options) error {
	key, err := tqec.CacheKey(res.Circuit, opts)
	if err != nil {
		return err
	}
	cache := ccache.New(diffCacheBudget)
	compute := func() ([]byte, error) {
		fresh, err := tqec.CompileContext(ctx, res.Circuit, opts)
		if err != nil {
			return nil, err
		}
		return server.EncodeResult(key, fresh)
	}
	first, outcome, err := cache.Do(ctx, key, compute)
	if err != nil {
		return fmt.Errorf("cached compile: %w", err)
	}
	if outcome != ccache.Miss {
		return fmt.Errorf("first cache access was %v, want miss", outcome)
	}
	second, outcome, err := cache.Do(ctx, key, compute)
	if err != nil {
		return fmt.Errorf("cache replay: %w", err)
	}
	if outcome != ccache.Hit {
		return fmt.Errorf("second cache access was %v, want hit", outcome)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("cache replay returned different bytes (%d vs %d)", len(first), len(second))
	}
	direct, err := server.EncodeResult(key, res)
	if err != nil {
		return err
	}
	if !bytes.Equal(direct, first) {
		return fmt.Errorf("cached bytes differ from direct encoding (%d vs %d bytes)", len(first), len(direct))
	}
	return nil
}

// DiffBridging cross-checks a bridged compilation against the unbridged
// ablation of the same circuit: the ablation must satisfy the same
// structural invariants, share the ICM footprint and canonical volume
// (bridging is purely geometric), and perform no merges. On circuits
// whose decomposed form fits in maxSimQubits the decomposition both runs
// share is additionally verified against the source circuit by
// state-vector simulation; the returned flag reports whether that
// simulation ran.
func DiffBridging(ctx context.Context, res *tqec.Result, opts tqec.Options, maxSimQubits int) (bool, error) {
	ablOpts := opts
	ablOpts.Bridging = false
	abl, err := tqec.CompileContext(ctx, res.Circuit, ablOpts)
	if err != nil {
		return false, fmt.Errorf("unbridged compile: %w", err)
	}
	if err := BridgeReconstructable(abl); err != nil {
		return false, fmt.Errorf("unbridged: %w", err)
	}
	if err := PlacementLegal(abl); err != nil {
		return false, fmt.Errorf("unbridged: %w", err)
	}
	// The unbridged netlist may exhaust the router even with the extra
	// margin — the very congestion Table V quantifies — so degradation is
	// tolerated here; what did route must still be structurally sound.
	if err := RoutingStructurallySound(abl); err != nil {
		return false, fmt.Errorf("unbridged: %w", err)
	}
	if err := VolumeAccounting(abl); err != nil {
		return false, fmt.Errorf("unbridged: %w", err)
	}
	if abl.Bridging.Merges != 0 || abl.Bridging.RemovedSegments != 0 {
		return false, fmt.Errorf("unbridged run reports %d merges and %d removed segments",
			abl.Bridging.Merges, abl.Bridging.RemovedSegments)
	}
	if abl.CanonicalVolume != res.CanonicalVolume {
		return false, fmt.Errorf("canonical volume %d unbridged vs %d bridged", abl.CanonicalVolume, res.CanonicalVolume)
	}
	if a, b := abl.ICM.Stats(), res.ICM.Stats(); a != b {
		return false, fmt.Errorf("ICM stats diverge: %+v unbridged vs %+v bridged", a, b)
	}

	if res.Decomposed == nil || maxSimQubits <= 0 || len(res.Decomposed.Qubits) > maxSimQubits {
		return false, nil
	}
	nq := len(res.Decomposed.Qubits)
	padded := res.Circuit.Clone()
	padded.Qubits = append([]string(nil), res.Decomposed.Qubits...)
	ok, err := sim.EquivalentOnCleanAncillas(nq, res.Circuit.NumQubits(), padded, res.Decomposed)
	if err != nil {
		return false, fmt.Errorf("simulate: %w", err)
	}
	if !ok {
		return true, fmt.Errorf("decomposed circuit is not unitarily equivalent to %q", res.Circuit.Name)
	}
	return true, nil
}

// DiffPartition cross-checks the partitioned compile pipeline: the same
// circuit is recompiled through CompilePartitionedContext with a qubit
// cap of half the decomposed width (forcing a genuine cut on any circuit
// wider than one qubit), the resulting partition must verify against the
// decomposed circuit (parts ∪ seams cover every source gate exactly once
// and reassemble to the exact source gates), the stitched geometry must
// pass PartitionedResult.Verify (per-part structural invariants, slab
// disjointness, seam route legality), and a second run must be
// bit-identical in cut, slabs, seam routes and combined volume — the
// determinism contract that makes partitioned compiles content
// addressable. On circuits whose decomposed form fits in maxSimQubits the
// reassembled circuit is additionally verified unitarily equivalent to
// the source on clean ancillas by state-vector simulation; the returned
// flag reports whether that simulation ran.
func DiffPartition(ctx context.Context, res *tqec.Result, opts tqec.Options, maxSimQubits int) (bool, error) {
	d, err := decompose.Decompose(res.Circuit)
	if err != nil {
		return false, fmt.Errorf("decompose: %w", err)
	}
	nq := d.Circuit.NumQubits()
	popts := opts
	popts.Partition = partition.Options{
		MaxQubitsPerPart: (nq + 1) / 2,
		Seed:             opts.Place.Seed,
	}
	first, err := tqec.CompilePartitionedContext(ctx, res.Circuit, popts)
	if err != nil {
		return false, fmt.Errorf("partitioned compile: %w", err)
	}
	if nq > popts.Partition.MaxQubitsPerPart && first.PassThrough {
		return false, fmt.Errorf("cap %d on a %d-qubit decomposition did not split", popts.Partition.MaxQubitsPerPart, nq)
	}
	if err := first.Partition.Verify(d.Circuit, popts.Partition); err != nil {
		return false, err
	}
	if err := first.Verify(); err != nil {
		return false, err
	}
	second, err := tqec.CompilePartitionedContext(ctx, res.Circuit, popts)
	if err != nil {
		return false, fmt.Errorf("partitioned recompile: %w", err)
	}
	if err := samePartitioned(first, second); err != nil {
		return false, fmt.Errorf("partitioned reruns diverge: %w", err)
	}

	if maxSimQubits <= 0 || nq > maxSimQubits {
		return false, nil
	}
	back, err := first.Partition.Reassemble(d.Circuit)
	if err != nil {
		return false, err
	}
	padded := res.Circuit.Clone()
	padded.Qubits = append([]string(nil), d.Circuit.Qubits...)
	ok, err := sim.EquivalentOnCleanAncillas(nq, res.Circuit.NumQubits(), padded, back)
	if err != nil {
		return false, fmt.Errorf("simulate: %w", err)
	}
	if !ok {
		return true, fmt.Errorf("reassembled partition of %q is not unitarily equivalent to the source", res.Circuit.Name)
	}
	return true, nil
}

// samePartitioned compares two partitioned results for bit-identical
// output: the qubit cut, the slab geometry, every seam route and the
// combined measurements.
func samePartitioned(a, b *tqec.PartitionedResult) error {
	if la, lb := len(a.Partition.QubitPart), len(b.Partition.QubitPart); la != lb {
		return fmt.Errorf("qubit maps cover %d vs %d qubits", la, lb)
	}
	for q := range a.Partition.QubitPart {
		if a.Partition.QubitPart[q] != b.Partition.QubitPart[q] {
			return fmt.Errorf("qubit %d in part %d vs %d", q, a.Partition.QubitPart[q], b.Partition.QubitPart[q])
		}
	}
	if la, lb := len(a.Slabs), len(b.Slabs); la != lb {
		return fmt.Errorf("%d vs %d slabs", la, lb)
	}
	for i := range a.Slabs {
		if a.Slabs[i] != b.Slabs[i] {
			return fmt.Errorf("slab %d at %v vs %v", i, a.Slabs[i], b.Slabs[i])
		}
	}
	if a.Dims != b.Dims || a.Volume != b.Volume {
		return fmt.Errorf("geometry %v volume %d vs %v volume %d", a.Dims, a.Volume, b.Dims, b.Volume)
	}
	switch {
	case a.SeamRouting == nil && b.SeamRouting == nil:
	case a.SeamRouting == nil || b.SeamRouting == nil:
		return fmt.Errorf("seam routing present in only one run")
	default:
		if la, lb := len(a.SeamRouting.Routes), len(b.SeamRouting.Routes); la != lb {
			return fmt.Errorf("%d vs %d seam routes", la, lb)
		}
		for id, ap := range a.SeamRouting.Routes {
			bp, ok := b.SeamRouting.Routes[id]
			if !ok {
				return fmt.Errorf("seam %d routed in only one run", id)
			}
			if len(ap) != len(bp) {
				return fmt.Errorf("seam %d path length %d vs %d", id, len(ap), len(bp))
			}
			for i := range ap {
				if ap[i] != bp[i] {
					return fmt.Errorf("seam %d cell %d: %v vs %v", id, i, ap[i], bp[i])
				}
			}
		}
	}
	return nil
}

// DiffZX cross-checks the ZX pre-compression pass against its ablation:
// the same circuit is recompiled with Options.ZX flipped, the ablation
// must satisfy every structural invariant, the ZX-on run's canonical
// volume must never exceed the ZX-off run's (the pass's self-checking
// fall-back contract), both decompositions must agree on qubit count, and
// on circuits small enough for maxSimQubits the two decompositions are
// verified unitarily equivalent on clean ancillas by state-vector
// simulation. The returned flag reports whether the simulation ran.
func DiffZX(ctx context.Context, res *tqec.Result, opts tqec.Options, maxSimQubits int) (bool, error) {
	ablOpts := opts
	ablOpts.ZX = !opts.ZX
	abl, err := tqec.CompileContext(ctx, res.Circuit, ablOpts)
	if err != nil {
		return false, fmt.Errorf("zx ablation compile (ZX=%v): %w", ablOpts.ZX, err)
	}
	if err := BridgeReconstructable(abl); err != nil {
		return false, fmt.Errorf("zx ablation: %w", err)
	}
	if err := PlacementLegal(abl); err != nil {
		return false, fmt.Errorf("zx ablation: %w", err)
	}
	if err := RoutingStructurallySound(abl); err != nil {
		return false, fmt.Errorf("zx ablation: %w", err)
	}
	if err := VolumeAccounting(abl); err != nil {
		return false, fmt.Errorf("zx ablation: %w", err)
	}
	on, off := res, abl
	if !opts.ZX {
		on, off = abl, res
	}
	if on.CanonicalVolume > off.CanonicalVolume {
		return false, fmt.Errorf("ZX-on canonical volume %d exceeds ZX-off %d",
			on.CanonicalVolume, off.CanonicalVolume)
	}
	if a, b := on.Decomposed.NumQubits(), off.Decomposed.NumQubits(); a != b {
		return false, fmt.Errorf("decomposed qubit count diverges: %d ZX-on vs %d ZX-off", a, b)
	}

	nq := on.Decomposed.NumQubits()
	if maxSimQubits <= 0 || nq > maxSimQubits {
		return false, nil
	}
	ok, err := sim.EquivalentOnCleanAncillas(nq, res.Circuit.NumQubits(), on.Decomposed, off.Decomposed)
	if err != nil {
		return false, fmt.Errorf("simulate: %w", err)
	}
	if !ok {
		return true, fmt.Errorf("ZX-on and ZX-off decompositions of %q are not unitarily equivalent", res.Circuit.Name)
	}
	return true, nil
}
