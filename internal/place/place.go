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
// For efficiency the engine packs only the tiers touched by a
// perturbation, keeps per-tier extents cached, and undoes rejected moves
// by restoring just the affected trees.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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

	// Cached per-tier pack extents; dirty tiers are repacked lazily.
	tierW, tierH []int

	// pinSuper/pinLocal approximate each net pin by its module center
	// within its super-module.
	pinSuper map[int]int
	pinLocal map[int]geom.Point
	// netList is the dense (superA, localA, superB, localB) view of nets.
	netList []netRef

	pitch        int
	vnorm, lnorm float64
	moves        int

	bestTrees  []*bstar.Tree
	bestTierOf []int
	bestCost   float64
}

type netRef struct {
	sa, sb int
	la, lb geom.Point
}

// EffectiveIterations returns the SA move budget Run will use for n blocks:
// the configured budget, or the automatic 200-moves-per-block rule when
// Iterations is 0. Retry escalation uses it to grow the budget from the
// auto-derived baseline.
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
		cl:       cl,
		nets:     nets,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		pinSuper: map[int]int{},
		pinLocal: map[int]geom.Point{},
		pitch:    pitch,
	}
	e.resizeTSLs()
	e.buildBlocks()
	if err := e.assignTiers(); err != nil {
		return nil, err
	}
	e.buildPinMap()
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
	for t := range e.trees {
		e.tierW[t], e.tierH[t] = e.trees[t].Pack()
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

func (e *engine) buildPinMap() {
	for _, n := range e.nets {
		for _, p := range []int{n.PinA, n.PinB} {
			if _, ok := e.pinSuper[p]; ok {
				continue
			}
			pin := e.cl.NL.Pins[p]
			m := e.cl.NL.Segments[pin.Segment].Module
			sid := e.cl.OfModule[m]
			e.pinSuper[p] = sid
			s := e.cl.Supers[sid]
			for i, mm := range s.Members {
				if mm == m {
					sz := cluster.ModuleSize(e.cl.NL, m)
					e.pinLocal[p] = s.Offsets[i].Add(geom.Pt(sz.X/2, sz.Y/2, sz.Z/2))
					break
				}
			}
		}
	}
	e.netList = make([]netRef, len(e.nets))
	for i, n := range e.nets {
		e.netList[i] = netRef{
			sa: e.pinSuper[n.PinA], la: e.pinLocal[n.PinA],
			sb: e.pinSuper[n.PinB], lb: e.pinLocal[n.PinB],
		}
	}
}

// repack refreshes the cached extents of the given tiers.
func (e *engine) repack(tiers ...int) {
	for _, t := range tiers {
		e.tierW[t], e.tierH[t] = e.trees[t].Pack()
	}
}

// positions extracts absolute super origins from the cached packings, with
// TSL reallocation applied.
func (e *engine) positions() []geom.Point {
	pos := make([]geom.Point, len(e.blocks))
	for i, b := range e.blocks {
		pos[i] = geom.Pt(b.X+e.opts.Margin, b.Y+e.opts.Margin, 1+e.tierOf[i]*e.pitch)
	}
	e.reallocateTSLs(pos)
	return pos
}

// reallocateTSLs restores per-qubit T ordering: the equally-sized supers of
// each TSL are reassigned to their position multiset sorted by x (then
// tier, then y), in Seq order.
func (e *engine) reallocateTSLs(pos []geom.Point) {
	for _, tsl := range e.cl.TSLs {
		if len(tsl) < 2 {
			continue
		}
		positions := make([]geom.Point, len(tsl))
		for i, id := range tsl {
			positions[i] = pos[id]
		}
		sort.Slice(positions, func(i, j int) bool {
			if positions[i].X != positions[j].X {
				return positions[i].X < positions[j].X
			}
			if positions[i].Z != positions[j].Z {
				return positions[i].Z < positions[j].Z
			}
			return positions[i].Y < positions[j].Y
		})
		for i, id := range tsl { // tsl is already in Seq order
			pos[id] = positions[i]
		}
	}
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
	pos := e.positions()
	for _, n := range e.netList {
		a := pos[n.sa].Add(n.la)
		b := pos[n.sb].Add(n.lb)
		l += a.Manhattan(b)
	}
	return v, r, l
}

func (e *engine) cost() float64 {
	v, r, l := e.evaluateRaw()
	dr := r - aspectTarget
	return alpha*float64(v)/e.vnorm +
		beta*float64(l)/e.lnorm +
		gamma*dr*dr
}

// move describes one perturbation and how to undo it.
type move struct {
	tiers []int // affected tiers
	undo  func()
}

// perturb applies one random perturbation; returns nil when the draw was a
// no-op.
func (e *engine) perturb() *move {
	switch e.rng.Intn(4) {
	case 0: // intra-tree swap
		t := e.rng.Intn(len(e.trees))
		tr := e.trees[t]
		if tr.Len() < 2 {
			return nil
		}
		a, b := tr.RandomNode(e.rng), tr.RandomNode(e.rng)
		if a == b {
			return nil
		}
		tr.SwapBlocks(a, b)
		return &move{tiers: []int{t}, undo: func() { tr.SwapBlocks(a, b) }}
	case 1: // inter-tree swap
		if len(e.trees) < 2 {
			return nil
		}
		t1, t2 := e.rng.Intn(len(e.trees)), e.rng.Intn(len(e.trees))
		if t1 == t2 || e.trees[t1].Len() == 0 || e.trees[t2].Len() == 0 {
			return nil
		}
		a, b := e.trees[t1].RandomNode(e.rng), e.trees[t2].RandomNode(e.rng)
		ba, bb := e.trees[t1].BlockAt(a), e.trees[t2].BlockAt(b)
		bstar.SwapBlocksAcross(e.trees[t1], a, e.trees[t2], b)
		e.tierOf[ba], e.tierOf[bb] = t2, t1
		return &move{tiers: []int{t1, t2}, undo: func() {
			bstar.SwapBlocksAcross(e.trees[t1], a, e.trees[t2], b)
			e.tierOf[ba], e.tierOf[bb] = t1, t2
		}}
	case 2: // intra-tree move (restore by tree snapshot)
		t := e.rng.Intn(len(e.trees))
		tr := e.trees[t]
		if tr.Len() < 2 {
			return nil
		}
		saved := tr.CloneInto(e.blocks)
		n := tr.RandomNode(e.rng)
		b := tr.Remove(n)
		p := tr.RandomNode(e.rng)
		if err := tr.Insert(b, p, e.rng.Intn(2) == 0); err != nil {
			e.trees[t] = saved
			return nil
		}
		return &move{tiers: []int{t}, undo: func() { e.trees[t] = saved }}
	default: // inter-tree move
		if len(e.trees) < 2 {
			return nil
		}
		t1, t2 := e.rng.Intn(len(e.trees)), e.rng.Intn(len(e.trees))
		if t1 == t2 || e.trees[t1].Len() < 2 {
			return nil
		}
		saved1 := e.trees[t1].CloneInto(e.blocks)
		saved2 := e.trees[t2].CloneInto(e.blocks)
		n := e.trees[t1].RandomNode(e.rng)
		b := e.trees[t1].Remove(n)
		var err error
		if e.trees[t2].Len() == 0 {
			err = e.trees[t2].Insert(b, -1, true)
		} else {
			err = e.trees[t2].Insert(b, e.trees[t2].RandomNode(e.rng), e.rng.Intn(2) == 0)
		}
		if err != nil {
			e.trees[t1], e.trees[t2] = saved1, saved2
			return nil
		}
		e.tierOf[b] = t2
		return &move{tiers: []int{t1, t2}, undo: func() {
			e.trees[t1], e.trees[t2] = saved1, saved2
			e.tierOf[b] = t1
		}}
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
		mv := e.perturb()
		if mv == nil {
			continue
		}
		e.moves++
		savedW := append([]int(nil), e.tierW...)
		savedH := append([]int(nil), e.tierH...)
		e.repack(mv.tiers...)
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
			mv.undo()
			copy(e.tierW, savedW)
			copy(e.tierH, savedH)
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

func (e *engine) snapshot() ([]*bstar.Tree, []int) {
	trees := make([]*bstar.Tree, len(e.trees))
	for i, t := range e.trees {
		trees[i] = t.CloneInto(e.blocks)
	}
	return trees, append([]int(nil), e.tierOf...)
}

func (e *engine) restoreBest() {
	e.trees = make([]*bstar.Tree, len(e.bestTrees))
	for i, t := range e.bestTrees {
		e.trees[i] = t.CloneInto(e.blocks)
	}
	copy(e.tierOf, e.bestTierOf)
	all := make([]int, len(e.trees))
	for i := range all {
		all[i] = i
	}
	e.repack(all...)
}

// extract materializes the final placement.
func (e *engine) extract() *Placement {
	pos := e.positions()
	wl := 0
	for _, n := range e.netList {
		a := pos[n.sa].Add(n.la)
		b := pos[n.sb].Add(n.lb)
		wl += a.Manhattan(b)
	}
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
