// Package place implements the paper's time-ordering-aware 2.5D placement
// (Section III-C2): super-modules are distributed over stacked tiers, each
// tier is packed by a B*-tree, and a simulated-annealing engine perturbs
// the 2.5D forest with intra-/inter-tree node moves and swaps while
// minimizing
//
//	Φ = α·V/Vnorm + β·L/Lnorm + γ·(R−R*)²            (Eq. 7)
//
// with α=0.5, β=0.5, γ=0.25 and the desired aspect ratio R* = 1:2
// (width:height). Module rotation is disallowed (it would break the
// internal time ordering of super-modules), every block is expanded by a
// routing margin, and the time-dependent super-modules of each qubit's TSL
// are resized to a common footprint and reassigned to the x-sorted
// positions after every perturbation so T-gate measurements stay in
// program order along the time axis.
//
// Φ is recomputed in full after every perturbation, so the engine keeps
// that cheap: it repacks only the tiers a move touched, keeps per-tier
// extents cached, and runs a move, its cost evaluation and its undo
// without allocating — positions, TSL sorts and the saved copies of
// perturbed trees live in buffers the engine reuses.
package place

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/bridge"
	"repro/internal/bstar"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/geom"
)

// cancelCheckInterval bounds how many SA moves may elapse between context
// checks: a deadline aborts the annealing loop within this many moves.
const cancelCheckInterval = 64

// DefaultTierPitch is the default z distance between consecutive tier
// bases: two cells of module body plus one shared inter-tier routing plane
// (the top pins of tier t and the bottom pins of tier t+1 meet in the same
// gap plane). Congested netlists can raise Options.TierPitch to 4 for a
// dedicated routing plane per tier face, as tqec does for unbridged
// compiles.
const DefaultTierPitch = 3

// The paper's SA parameters: α, β and γ weight volume, wirelength and
// aspect-ratio deviation in Φ (Eq. 7), aspectTarget is R* = 1:2
// (width:height), and initialTemp and finalTemp bound the geometric
// cooling schedule. They are typed so a constant expression over them
// rounds every operation to float64, exactly as runtime arithmetic does.
const (
	alpha        float64 = 0.5
	beta         float64 = 0.5
	gamma        float64 = 0.25
	aspectTarget float64 = 0.5
	initialTemp  float64 = 0.05
	finalTemp    float64 = 1e-5
)

// Options configures the SA engine.
type Options struct {
	// Iterations is the total number of SA moves; 0 derives a budget of
	// 200 moves per block (the paper runs 2000-3000 outer iterations).
	Iterations int
	// Seed drives the SA's PRNG.
	Seed int64
	// Margin expands every block on each side to preserve routing space.
	Margin int
	// TierPitch overrides the tier z spacing (0 = DefaultTierPitch).
	TierPitch int
	// Chains runs that many cooperating SA chains concurrently with
	// deterministic per-chain seeds derived from Seed and periodic
	// best-cost exchange at temperature milestones; the lowest-cost chain
	// wins, ties broken by the lowest chain index. 0 derives
	// min(GOMAXPROCS, 4); 1 is byte-identical to the sequential placer.
	// For a fixed (Seed, Chains) pair the result is bit-identical across
	// runs.
	Chains int
}

// DefaultOptions returns the paper's parameterization.
func DefaultOptions() Options {
	return Options{Margin: 1}
}

// Placement is the SA result.
type Placement struct {
	Clust *cluster.Clustering
	Nets  []bridge.Net
	// Pos is each super-module's absolute body origin (x=time, y=width,
	// z=height).
	Pos []geom.Point
	// TierOf is each super-module's tier.
	TierOf []int
	// Tiers is the tier count used.
	Tiers int
	// WireLength is the final total Manhattan wirelength estimate.
	WireLength int
	// Cost is the final Φ value.
	Cost float64
	// Moves is the number of SA moves performed.
	Moves int
}

// Run places the clustering's super-modules.
func Run(cl *cluster.Clustering, nets []bridge.Net, opts Options) (*Placement, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; RunContext is the threaded variant
	return RunContext(context.Background(), cl, nets, opts)
}

// RunContext is Run with cooperative cancellation: the SA loop checks ctx
// every cancelCheckInterval moves and aborts with an error wrapping
// faults.ErrCanceled when the deadline passes or the context is canceled.
func RunContext(ctx context.Context, cl *cluster.Clustering, nets []bridge.Net, opts Options) (*Placement, error) {
	if len(cl.Supers) == 0 {
		return nil, fmt.Errorf("place: %w: nothing to place", faults.ErrEmpty)
	}
	if err := faults.Canceled(ctx); err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	return runChains(ctx, cl, nets, opts, opts.EffectiveChains())
}

// runOnce anneals a single sequential chain (the pre-multi-chain code
// path; Chains=1 reduces to exactly this).
func runOnce(ctx context.Context, cl *cluster.Clustering, nets []bridge.Net, opts Options) (*Placement, error) {
	e, err := newEngine(cl, nets, opts)
	if err != nil {
		return nil, err
	}
	if err := e.anneal(ctx, nil, 0); err != nil {
		return nil, err
	}
	return e.extract(), nil
}

// engine is the SA state.
type engine struct {
	cl   *cluster.Clustering
	nets []bridge.Net
	opts Options
	rng  *rand.Rand

	sizes  []geom.Point
	blocks []*bstar.Block
	trees  []*bstar.Tree
	tierOf []int

	// Cached per-tier pack extents; a move repacks only the tiers it
	// touched. savedW/savedH hold them across a move so a rejection
	// restores them.
	tierW, tierH   []int
	savedW, savedH []int

	// netList is the dense view of nets for the wirelength sum.
	netList []netRef
	// pos is the buffer positions fills; tslPos is reallocateTSLs' sort
	// scratch.
	pos, tslPos []geom.Point
	// spare holds private copies of the trees a subtree move perturbs; a
	// rejected move is undone by swapping them back in.
	spare [2]*bstar.Tree

	pitch        int
	vnorm, lnorm float64
	moves        int

	bestTrees  []*bstar.Tree
	bestTierOf []int
	bestCost   float64
}

// netRef approximates a net by its two pins' module centers: pin A sits
// at la inside super sa and pin B at lb inside super sb, and d = la − lb,
// so the net's Manhattan length is |pos[sa] + d − pos[sb]|.
type netRef struct {
	sa, sb int
	d      geom.Point
}

// EffectiveIterations returns the SA move budget Run will use for n blocks:
// the configured budget, or the automatic 200-moves-per-block rule when
// Iterations is 0.
func (o Options) EffectiveIterations(n int) int {
	if o.Iterations > 0 {
		return o.Iterations
	}
	return 200 * n
}

func newEngine(cl *cluster.Clustering, nets []bridge.Net, opts Options) (*engine, error) {
	if opts.Iterations < 0 {
		return nil, fmt.Errorf("place: negative iterations")
	}
	opts.Iterations = opts.EffectiveIterations(len(cl.Supers))
	pitch := opts.TierPitch
	if pitch <= 0 {
		pitch = DefaultTierPitch
	}
	e := &engine{
		cl:    cl,
		nets:  nets,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		pitch: pitch,
	}
	e.resizeTSLs()
	e.buildBlocks()
	if err := e.assignTiers(); err != nil {
		return nil, err
	}
	e.buildPinMap()
	e.pos = make([]geom.Point, len(e.blocks))
	for i := range e.spare {
		e.spare[i] = bstar.NewTree(e.blocks, nil)
	}
	v, _, l := e.evaluateRaw()
	e.vnorm = math.Max(1, float64(v))
	e.lnorm = math.Max(1, float64(l))
	return e, nil
}

// resizeTSLs grows every time-dependent super-module in a TSL to the
// common maximum footprint so post-perturbation reallocation is
// position-neutral (Section III-C2).
func (e *engine) resizeTSLs() {
	e.sizes = make([]geom.Point, len(e.cl.Supers))
	for i, s := range e.cl.Supers {
		e.sizes[i] = s.Size
	}
	for _, tsl := range e.cl.TSLs {
		if len(tsl) < 2 {
			continue
		}
		var m geom.Point
		for _, id := range tsl {
			m = geom.MaxPoint(m, e.sizes[id])
		}
		for _, id := range tsl {
			e.sizes[id] = m
		}
	}
}

func (e *engine) buildBlocks() {
	e.blocks = make([]*bstar.Block, len(e.cl.Supers))
	for i := range e.cl.Supers {
		e.blocks[i] = &bstar.Block{
			W: e.sizes[i].X + 2*e.opts.Margin,
			H: e.sizes[i].Y + 2*e.opts.Margin,
		}
	}
}

// assignTiers distributes supers over the derived tier count, balancing
// area, and builds one shelf-shaped B*-tree per tier (rows of roughly the
// tier's target width, which gives the SA a compact warm start).
func (e *engine) assignTiers() error {
	area := 0
	for _, b := range e.blocks {
		area += b.W * b.H
	}
	// Aiming for W:H ≈ R* with H = pitch·T and square tiers:
	// T ≈ (area·R*²/pitch²)^(1/3).
	t := math.Cbrt(float64(area) * aspectTarget * aspectTarget / float64(e.pitch*e.pitch))
	n := int(math.Round(t))
	if n < 1 {
		n = 1
	}
	if n > len(e.blocks) {
		n = len(e.blocks)
	}
	// Big blocks first, round-robin: balances tier areas.
	order := make([]int, len(e.blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := e.blocks[order[i]], e.blocks[order[j]]
		return a.W*a.H > b.W*b.H
	})
	e.tierOf = make([]int, len(e.blocks))
	members := make([][]int, n)
	for k, b := range order {
		t := k % n
		e.tierOf[b] = t
		members[t] = append(members[t], b)
	}
	targetW := int(math.Sqrt(float64(area)/float64(n))) + 1
	e.trees = make([]*bstar.Tree, n)
	for t := range e.trees {
		tr, err := e.shelfTree(members[t], targetW)
		if err != nil {
			return fmt.Errorf("place: tier %d: %w: %w", t, faults.ErrInvariant, err)
		}
		e.trees[t] = tr
	}
	e.tierW = make([]int, n)
	e.tierH = make([]int, n)
	e.savedW = make([]int, n)
	e.savedH = make([]int, n)
	for t := range e.trees {
		e.repack(t)
	}
	return nil
}

// shelfTree builds a B*-tree whose packing approximates row-major shelves
// of the target width: rows are chains of left children; each new row
// hangs as the right child of the previous row's first block. Insert
// failures (impossible on a fresh tree, but guarded) are returned, not
// panicked.
func (e *engine) shelfTree(members []int, targetW int) (*bstar.Tree, error) {
	tr := bstar.NewTree(e.blocks, nil)
	if len(members) == 0 {
		return tr, nil
	}
	if err := tr.Insert(members[0], -1, true); err != nil {
		return nil, err
	}
	rowStartNode := 0
	prevNode := 0
	rowWidth := e.blocks[members[0]].W
	for _, b := range members[1:] {
		w := e.blocks[b].W
		if rowWidth+w > targetW {
			// New row above the current row's first block.
			if err := tr.Insert(b, rowStartNode, false); err != nil {
				return nil, err
			}
			rowStartNode = tr.NodeOfLastInsert()
			prevNode = rowStartNode
			rowWidth = w
		} else {
			if err := tr.Insert(b, prevNode, true); err != nil {
				return nil, err
			}
			prevNode = tr.NodeOfLastInsert()
			rowWidth += w
		}
	}
	return tr, nil
}

// buildPinMap approximates each net pin by its module center within its
// super-module and records every net as a netRef.
func (e *engine) buildPinMap() {
	pinSuper := map[int]int{}
	pinLocal := map[int]geom.Point{}
	for _, n := range e.nets {
		for _, p := range []int{n.PinA, n.PinB} {
			if _, ok := pinSuper[p]; ok {
				continue
			}
			pin := e.cl.NL.Pins[p]
			m := e.cl.NL.Segments[pin.Segment].Module
			sid := e.cl.OfModule[m]
			pinSuper[p] = sid
			s := e.cl.Supers[sid]
			for i, mm := range s.Members {
				if mm == m {
					sz := cluster.ModuleSize(e.cl.NL, m)
					pinLocal[p] = s.Offsets[i].Add(geom.Pt(sz.X/2, sz.Y/2, sz.Z/2))
					break
				}
			}
		}
	}
	e.netList = make([]netRef, len(e.nets))
	for i, n := range e.nets {
		e.netList[i] = netRef{
			sa: pinSuper[n.PinA],
			sb: pinSuper[n.PinB],
			d:  pinLocal[n.PinA].Sub(pinLocal[n.PinB]),
		}
	}
}

// repack refreshes the cached extents of tier t.
func (e *engine) repack(t int) {
	e.tierW[t], e.tierH[t] = e.trees[t].Pack()
}

// positions fills the engine's position buffer with absolute super
// origins from the cached packings, with TSL reallocation applied, and
// returns it; the next call overwrites it.
func (e *engine) positions() []geom.Point {
	pos := e.pos
	for i, b := range e.blocks {
		pos[i] = geom.Pt(b.X+e.opts.Margin, b.Y+e.opts.Margin, 1+e.tierOf[i]*e.pitch)
	}
	e.reallocateTSLs(pos)
	return pos
}

// reallocateTSLs restores per-qubit T ordering: the equally-sized supers of
// each TSL are reassigned to their position multiset sorted by x (then
// tier, then y), in Seq order. The comparison covers every coordinate, so
// it is a total order and the sorted multiset is unique.
func (e *engine) reallocateTSLs(pos []geom.Point) {
	for _, tsl := range e.cl.TSLs {
		if len(tsl) < 2 {
			continue
		}
		sorted := e.tslPos[:0]
		for _, id := range tsl {
			sorted = append(sorted, pos[id])
		}
		slices.SortFunc(sorted, comparePos)
		for i, id := range tsl { // tsl is already in Seq order
			pos[id] = sorted[i]
		}
		e.tslPos = sorted
	}
}

// comparePos orders points by x, then z (tier), then y.
func comparePos(a, b geom.Point) int {
	if a.X != b.X {
		return cmp.Compare(a.X, b.X)
	}
	if a.Z != b.Z {
		return cmp.Compare(a.Z, b.Z)
	}
	return cmp.Compare(a.Y, b.Y)
}

// wireLength sums every net's Manhattan length at the given positions.
func (e *engine) wireLength(pos []geom.Point) int {
	l := 0
	for _, n := range e.netList {
		l += pos[n.sa].Add(n.d).Manhattan(pos[n.sb])
	}
	return l
}

// evaluateRaw returns (volume, aspect ratio, wirelength) from the cached
// tier packings.
func (e *engine) evaluateRaw() (v int, r float64, l int) {
	depth, width := 0, 0
	for t := range e.trees {
		if e.tierW[t] > depth {
			depth = e.tierW[t]
		}
		if e.tierH[t] > width {
			width = e.tierH[t]
		}
	}
	height := len(e.trees) * e.pitch
	v = depth * width * height
	r = float64(width) / float64(height)
	return v, r, e.wireLength(e.positions())
}

func (e *engine) cost() float64 {
	v, r, l := e.evaluateRaw()
	dr := r - aspectTarget
	return alpha*float64(v)/e.vnorm +
		beta*float64(l)/e.lnorm +
		gamma*dr*dr
}

// moveKind names the four perturbations of Section III-C2.
type moveKind uint8

const (
	swapIntra moveKind = iota // swap two blocks of one tree
	swapInter                 // swap blocks between two trees
	moveIntra                 // move a block within one tree
	moveInter                 // move a block to another tree
)

// move records one applied perturbation: enough to repack the tiers it
// touched and to undo it.
type move struct {
	kind   moveKind
	t1, t2 int // affected tiers; t2 is -1 for single-tree moves
	a, b   int // swapped nodes (swaps)
	ba, bb int // blocks that changed tier (ba alone for moveInter)
}

// perturb applies one random perturbation; ok is false when the draw was
// a no-op. The subtree moves first save the trees they touch into the
// engine's spare trees.
func (e *engine) perturb() (mv move, ok bool) {
	switch e.rng.Intn(4) {
	case 0: // intra-tree swap
		t := e.rng.Intn(len(e.trees))
		tr := e.trees[t]
		if tr.Len() < 2 {
			return move{}, false
		}
		a, b := tr.RandomNode(e.rng), tr.RandomNode(e.rng)
		if a == b {
			return move{}, false
		}
		tr.SwapBlocks(a, b)
		return move{kind: swapIntra, t1: t, t2: -1, a: a, b: b}, true
	case 1: // inter-tree swap
		if len(e.trees) < 2 {
			return move{}, false
		}
		t1, t2 := e.rng.Intn(len(e.trees)), e.rng.Intn(len(e.trees))
		if t1 == t2 || e.trees[t1].Len() == 0 || e.trees[t2].Len() == 0 {
			return move{}, false
		}
		a, b := e.trees[t1].RandomNode(e.rng), e.trees[t2].RandomNode(e.rng)
		ba, bb := e.trees[t1].BlockAt(a), e.trees[t2].BlockAt(b)
		bstar.SwapBlocksAcross(e.trees[t1], a, e.trees[t2], b)
		e.tierOf[ba], e.tierOf[bb] = t2, t1
		return move{kind: swapInter, t1: t1, t2: t2, a: a, b: b, ba: ba, bb: bb}, true
	case 2: // intra-tree move
		t := e.rng.Intn(len(e.trees))
		tr := e.trees[t]
		if tr.Len() < 2 {
			return move{}, false
		}
		mv = move{kind: moveIntra, t1: t, t2: -1}
		e.spare[0].CopyFrom(tr)
		n := tr.RandomNode(e.rng)
		b := tr.Remove(n)
		p := tr.RandomNode(e.rng)
		if err := tr.Insert(b, p, e.rng.Intn(2) == 0); err != nil {
			e.restoreTrees(mv)
			return move{}, false
		}
		return mv, true
	default: // inter-tree move
		if len(e.trees) < 2 {
			return move{}, false
		}
		t1, t2 := e.rng.Intn(len(e.trees)), e.rng.Intn(len(e.trees))
		if t1 == t2 || e.trees[t1].Len() < 2 {
			return move{}, false
		}
		mv = move{kind: moveInter, t1: t1, t2: t2}
		e.spare[0].CopyFrom(e.trees[t1])
		e.spare[1].CopyFrom(e.trees[t2])
		n := e.trees[t1].RandomNode(e.rng)
		b := e.trees[t1].Remove(n)
		var err error
		if e.trees[t2].Len() == 0 {
			err = e.trees[t2].Insert(b, -1, true)
		} else {
			err = e.trees[t2].Insert(b, e.trees[t2].RandomNode(e.rng), e.rng.Intn(2) == 0)
		}
		if err != nil {
			e.restoreTrees(mv)
			return move{}, false
		}
		e.tierOf[b] = t2
		mv.ba = b
		return mv, true
	}
}

// restoreTrees swaps a subtree move's saved trees back in; the perturbed
// trees become the spares.
func (e *engine) restoreTrees(mv move) {
	e.trees[mv.t1], e.spare[0] = e.spare[0], e.trees[mv.t1]
	if mv.t2 >= 0 {
		e.trees[mv.t2], e.spare[1] = e.spare[1], e.trees[mv.t2]
	}
}

// repackMove saves the cached extents, then repacks the tiers mv touched.
func (e *engine) repackMove(mv move) {
	copy(e.savedW, e.tierW)
	copy(e.savedH, e.tierH)
	e.repack(mv.t1)
	if mv.t2 >= 0 {
		e.repack(mv.t2)
	}
}

// undo reverts a repacked perturbation's trees, tiers and cached extents.
// Block coordinates keep the rejected packing until their tier is next
// repacked.
func (e *engine) undo(mv move) {
	copy(e.tierW, e.savedW)
	copy(e.tierH, e.savedH)
	switch mv.kind {
	case swapIntra:
		e.trees[mv.t1].SwapBlocks(mv.a, mv.b)
	case swapInter:
		bstar.SwapBlocksAcross(e.trees[mv.t1], mv.a, e.trees[mv.t2], mv.b)
		e.tierOf[mv.ba], e.tierOf[mv.bb] = mv.t1, mv.t2
	case moveIntra:
		e.restoreTrees(mv)
	case moveInter:
		e.restoreTrees(mv)
		e.tierOf[mv.ba] = mv.t1
	}
}

// anneal runs the SA loop with a geometric cooling schedule, tracking the
// best forest seen. The context is checked every cancelCheckInterval moves
// so a deadline aborts within a bounded number of perturbations.
//
// With a non-nil exchanger the chain synchronizes with its peers at the
// exchanger's iteration milestones and adopts the global best forest when
// it is strictly better than its own (a strictly-better rule keeps a
// Chains=1 run byte-identical to the sequential placer: a lone chain never
// adopts its own best). Exchange consumes no PRNG draws, so the trajectory
// between milestones is exactly the single-chain trajectory.
func (e *engine) anneal(ctx context.Context, ex *exchanger, chain int) error {
	cur := e.cost()
	e.bestTrees, e.bestTierOf = e.snapshot()
	e.bestCost = cur
	n := e.opts.Iterations
	decay := math.Pow(finalTemp/initialTemp, 1/math.Max(1, float64(n)))
	temp := initialTemp
	sinceBest := 0
	nextMilestone := 0
	for it := 0; it < n; it++ {
		if it%cancelCheckInterval == 0 {
			if err := faults.Canceled(ctx); err != nil {
				return fmt.Errorf("place: SA aborted after %d/%d moves: %w", it, n, err)
			}
		}
		if ex != nil && nextMilestone < len(ex.milestones) && it == ex.milestones[nextMilestone] {
			nextMilestone++
			best := ex.exchange(chain, e.bestCost, e.bestTrees, e.bestTierOf)
			if best.valid && best.chain != chain && best.cost < e.bestCost {
				e.bestCost = best.cost
				e.bestTrees = cloneTrees(best.trees, e.blocks)
				e.bestTierOf = append([]int(nil), best.tierOf...)
				e.restoreBest()
				cur = e.bestCost
				sinceBest = 0
			}
		}
		mv, ok := e.perturb()
		if !ok {
			continue
		}
		e.moves++
		e.repackMove(mv)
		next := e.cost()
		accept := next <= cur || e.rng.Float64() < math.Exp(-(next-cur)/temp)
		if accept {
			cur = next
			if cur < e.bestCost {
				e.bestCost = cur
				e.bestTrees, e.bestTierOf = e.snapshot()
				sinceBest = 0
			} else {
				sinceBest++
			}
		} else {
			e.undo(mv)
			sinceBest++
		}
		// Restart from the best solution when stuck deep in the schedule.
		if sinceBest > n/4 && temp < initialTemp/100 {
			e.restoreBest()
			cur = e.bestCost
			sinceBest = 0
		}
		temp *= decay
	}
	e.restoreBest()
	return nil
}

// snapshot returns fresh copies of the forest and tier map. They are
// published to peer chains at exchange rounds, so they are never reused
// or mutated afterwards.
func (e *engine) snapshot() ([]*bstar.Tree, []int) {
	return cloneTrees(e.trees, e.blocks), append([]int(nil), e.tierOf...)
}

// restoreBest copies the best forest into the working trees and repacks
// every tier.
func (e *engine) restoreBest() {
	for i, t := range e.bestTrees {
		e.trees[i].CopyFrom(t)
	}
	copy(e.tierOf, e.bestTierOf)
	for t := range e.trees {
		e.repack(t)
	}
}

// extract materializes the final placement.
func (e *engine) extract() *Placement {
	pos := append([]geom.Point(nil), e.positions()...)
	wl := e.wireLength(pos)
	// TSL reallocation may have permuted supers across tiers; derive the
	// final tier of each super from its resolved z.
	tierOf := make([]int, len(pos))
	for i, p := range pos {
		tierOf[i] = (p.Z - 1) / e.pitch
	}
	return &Placement{
		Clust:      e.cl,
		Nets:       e.nets,
		Pos:        pos,
		TierOf:     tierOf,
		Tiers:      len(e.trees),
		WireLength: wl,
		Cost:       e.bestCost,
		Moves:      e.moves,
	}
}

// SuperBox returns the absolute body box of super s.
func (p *Placement) SuperBox(s int) geom.Box {
	sz := p.Clust.Supers[s].Size
	return geom.BoxAt(p.Pos[s], sz.X, sz.Y, sz.Z)
}

// ModuleBox returns the absolute body box of module m.
func (p *Placement) ModuleBox(m int) geom.Box {
	sid := p.Clust.OfModule[m]
	s := p.Clust.Supers[sid]
	for i, mm := range s.Members {
		if mm == m {
			sz := cluster.ModuleSize(p.Clust.NL, m)
			return geom.BoxAt(p.Pos[sid].Add(s.Offsets[i]), sz.X, sz.Y, sz.Z)
		}
	}
	return geom.Box{}
}

// BoxObstacles returns the absolute boxes of all embedded distillation
// boxes.
func (p *Placement) BoxObstacles() []geom.Box {
	var out []geom.Box
	for sid, s := range p.Clust.Supers {
		for _, bm := range s.Boxes {
			sz := bm.Kind.Size()
			out = append(out, geom.BoxAt(p.Pos[sid].Add(bm.Offset), sz.X, sz.Y, sz.Z))
		}
	}
	return out
}

// PinPos returns the absolute cell of pin id.
func (p *Placement) PinPos(id int) (geom.Point, error) {
	off, err := p.Clust.PinOffset(id)
	if err != nil {
		return geom.Point{}, err
	}
	pin := p.Clust.NL.Pins[id]
	m := p.Clust.NL.Segments[pin.Segment].Module
	sid := p.Clust.OfModule[m]
	s := p.Clust.Supers[sid]
	for i, mm := range s.Members {
		if mm == m {
			return p.Pos[sid].Add(s.Offsets[i]).Add(off), nil
		}
	}
	return geom.Point{}, fmt.Errorf("place: module %d missing from super %d", m, sid)
}

// Bounds returns the bounding box of all module bodies and boxes.
func (p *Placement) Bounds() geom.Box {
	var b geom.Box
	for m := range p.Clust.NL.Modules {
		b = b.Union(p.ModuleBox(m))
	}
	for _, ob := range p.BoxObstacles() {
		b = b.Union(ob)
	}
	return b
}

// Dims returns the W (y), H (z), D (x) extents of the placed bodies.
func (p *Placement) Dims() (w, h, d int) {
	b := p.Bounds()
	return b.Dy(), b.Dz(), b.Dx()
}

// CheckTimeOrdering verifies that every qubit's T blocks sit in
// non-decreasing x order (the geometric proxy for the time-ordered
// measurement constraint) and that, inside each time-dependent super, the
// Z module ends before the teleport modules end.
func (p *Placement) CheckTimeOrdering() error {
	for q, tsl := range p.Clust.TSLs {
		lastX := math.MinInt64
		for k, id := range tsl {
			x := p.Pos[id].X
			if x < lastX {
				return fmt.Errorf("place: qubit %d T block %d at x=%d before predecessor at x=%d",
					q, k, x, lastX)
			}
			lastX = x
		}
	}
	for _, s := range p.Clust.Supers {
		if s.Kind != cluster.KindTimeDep {
			continue
		}
		z := p.ModuleBox(s.Members[0])
		for _, m := range s.Members[1:] {
			t := p.ModuleBox(m)
			if t.Max.X < z.Max.X {
				return fmt.Errorf("place: super %d teleport module %d ends before Z module", s.ID, m)
			}
		}
	}
	return nil
}

// CheckNoOverlap verifies that no two module bodies or boxes overlap.
func (p *Placement) CheckNoOverlap() error {
	var boxes []geom.Box
	var names []string
	for m := range p.Clust.NL.Modules {
		boxes = append(boxes, p.ModuleBox(m))
		names = append(names, fmt.Sprintf("module %d", m))
	}
	for i, ob := range p.BoxObstacles() {
		boxes = append(boxes, ob)
		names = append(names, fmt.Sprintf("box %d", i))
	}
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Intersects(boxes[j]) {
				return fmt.Errorf("place: %s overlaps %s (%v ∩ %v)", names[i], names[j], boxes[i], boxes[j])
			}
		}
	}
	return nil
}
