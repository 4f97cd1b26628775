// Package route implements the paper's dual-defect net routing (Section
// III-D): iterative A* maze routing inside bounded search regions, a
// negotiation-based rip-up-and-reroute scheme with a history map
// (PathFinder-style), module bodies and distillation boxes rasterized as
// static obstacles into the dense cell grid the A* kernels probe, and
// friend-net-aware targets — a net sharing a pin with an already routed
// net may terminate anywhere on the routed friend's path instead of at the
// pin, a topological deformation that preserves the braiding relationship
// (Fig. 19). Rip-up victim scans walk the routed nets in ID order,
// skipping those whose cached bounding box misses the region, and
// verification checks paths against the same obstacles rasterized over
// the routed cells' bounding box.
//
// The hot path is bidirectional A* for single-start/single-target nets
// (search.go) over the dense cell grid (grid.go). The grid covers only
// the cells the bounded searches can reach — the pin cells' bounding box
// plus the widest search margin — and grows to the whole routable world
// once, when a whole-world rescue search needs it. Routing is
// deterministic for a fixed input: see ARCHITECTURE.md's "Routing" section
// for the contracts.
package route

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bridge"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/place"
)

// cancelCheckExpansions bounds how many A* expansions may elapse between
// context checks inside one search.
const cancelCheckExpansions = 2048

// The negotiation bounds: maxIterations bounds the rip-up-and-reroute
// rounds after the first pass, initialMargin expands each net's initial
// search region (the bounding box of its two pins) on every side,
// expandStep widens a failed net's region each retry, historyWeight scales
// the congestion history cost, and maxExpansions caps A* node expansions
// per attempt. The expansion and rip-up bounds are sized so hopeless nets
// fail fast instead of thrashing congested regions.
const (
	maxIterations         = 5
	initialMargin         = 3
	expandStep            = 4
	historyWeight float64 = 1.5
	maxExpansions         = 60000
)

// gridMargin is the widest search-region margin outside degrade's rescue:
// a net's margin starts at initialMargin and grows by expandStep on each
// of at most maxIterations negotiation attempts (23), and a victim
// reroute or a dangling repair searches one expandStep wider (27). The
// grid covers the pin cells' bounding box expanded by it.
const gridMargin = initialMargin + (maxIterations+1)*expandStep

// Options configures the router.
type Options struct {
	// FriendNets toggles friend-net-aware targets (disable for the
	// ablation: without bridging there are no shared pins anyway).
	FriendNets bool
	// Fallback enables graceful degradation: nets abandoned by the
	// negotiation rounds are rescued by a last-resort route over the
	// whole expanded world (larger volume, but connected). Rescued nets
	// set Result.Degraded and are listed in Result.FallbackNets.
	Fallback bool
	// FailNet, when non-nil, forces the listed nets to fail their normal
	// routing attempts (fault injection for degradation tests). Fallback
	// rescue attempts are not affected.
	FailNet func(id int) bool
	// Clock, when non-nil, samples a monotonic elapsed time (typically
	// time.Since of a fixed origin, injected by the caller so this
	// package stays free of wall-clock reads) and enables the
	// Result.Stats sub-stage timings. Nil disables timing collection.
	// Cleared by tqec.CanonicalOptions: it never affects routing output.
	Clock func() time.Duration
}

// DefaultOptions returns the standard configuration: friend-net-aware
// targets and the whole-world fallback rescue.
func DefaultOptions() Options {
	return Options{FriendNets: true, Fallback: true}
}

// FailedNet diagnoses one net that exhausted the negotiation rounds.
type FailedNet struct {
	// NetID is the net's ID.
	NetID int
	// PinA and PinB are the net's (rehomed) pin cells.
	PinA, PinB geom.Point
	// Manhattan is the pin-to-pin Manhattan distance.
	Manhattan int
	// Attempts counts routing attempts (first pass included).
	Attempts int
	// LastMargin is the search-region margin of the final attempt.
	LastMargin int
	// Fallback reports whether the net was rescued by fallback routing.
	Fallback bool
	// Reason describes the outcome.
	Reason string
}

// RoutingStats breaks the routing stage into sub-phases. The durations
// are collected only when Options.Clock is set (they are zero otherwise);
// the counters are always collected and are deterministic for a fixed
// input and options.
type RoutingStats struct {
	// Search is the time spent in A* searches.
	Search time.Duration
	// Commit is the time spent committing paths: recording routes and
	// their bounds and claiming grid cells.
	Commit time.Duration
	// RipUp is the time spent scanning for and removing rip-up victims,
	// including congestion-history charging.
	RipUp time.Duration
	// Searches, Commits and RipUpScans count the corresponding events.
	Searches, Commits, RipUpScans int
}

// Result is the routing outcome.
type Result struct {
	// Routes maps net ID to its routed path (endpoints inclusive).
	Routes map[int]geom.Path
	// Failed lists net IDs that could not be routed at all (fallback
	// included, when enabled).
	Failed []int
	// FailedNets carries per-net diagnostics for every net that
	// exhausted the negotiation rounds, whether or not the fallback
	// rescued it.
	FailedNets []FailedNet
	// FallbackNets lists net IDs routed by the degraded fallback.
	FallbackNets []int
	// Degraded reports that the result is usable but below full
	// quality: at least one net is fallback-routed or unrouted.
	Degraded bool
	// FirstPassRouted counts nets routed in the first iteration
	// (the paper reports 85-95%).
	FirstPassRouted int
	// Iterations is the number of routing rounds performed.
	Iterations int
	// RippedUp counts rip-up events.
	RippedUp int
	// HistoryCells counts cells that accumulated congestion history and
	// MaxHistory is the largest accumulated charge — both zero when the
	// first pass routed everything.
	HistoryCells int
	MaxHistory   float64
	// PinCells maps pin ID to the cell the router homed it to (pins may
	// be rehomed away from their geometric position, see homePin). Verify
	// uses it to check that every path terminal is anchored; results built
	// by hand may leave it nil, which skips the terminal check.
	PinCells map[int]geom.Point
	// Bounds is the bounding box of bodies, boxes and routes.
	Bounds geom.Box
	// Stats carries the sub-stage timing breakdown (see RoutingStats).
	Stats RoutingStats
}

// WireCells returns the total number of cells used by routed nets.
func (r *Result) WireCells() int {
	n := 0
	for _, p := range r.Routes {
		n += len(p)
	}
	return n
}

// endpointRebuilds counts endpoint-cache rebuilds (each rebuild sorts the
// start and target cell sets). Exposed for the regression test pinning
// that unchanged endpoints are not re-sorted across search attempts.
var endpointRebuilds atomic.Int64

// netEndpoints is the cached start/target cell sets of one net: the two
// (rehomed) pin cells plus, when FriendNets is enabled, every cell of
// every committed friend path at the corresponding pin. The cells are
// cellLess-sorted and deduplicated; sbox/tbox are the bounding boxes used
// as A* heuristic anchors. The cache is keyed by the two pins' revision
// counters, which bump on every commit and uncommit of an incident net,
// so a search only re-collects (and re-sorts) endpoints after they
// actually changed.
type netEndpoints struct {
	valid      bool
	revA, revB uint64
	starts     []geom.Point
	targets    []geom.Point
	sbox, tbox geom.Box
	// deg is the cellLess-smallest cell present in both sets (a friend
	// path touching both pins); when hasDeg is set the net routes as the
	// single-cell path {deg} without a search.
	deg    geom.Point
	hasDeg bool
}

type router struct {
	p    *place.Placement
	nets []bridge.Net
	opts Options

	// ctx and ctxErr implement cooperative cancellation: every routing
	// loop and the A* inner loop poll checkCtx and unwind when it trips.
	ctx    context.Context
	ctxErr error
	// inFallback marks the degraded rescue phase (disables FailNet
	// injection so forced failures can be rescued).
	inFallback bool
	// shove marks a shove-rescue search: the A* kernels may cross other
	// nets' committed cells at shovePenalty each (see shoveRescue). Only
	// toggled in the degrade phase.
	shove bool

	// grid holds the per-cell state — rasterized static obstacles, net
	// ownership (a cell is recorded for its first owner only; friend
	// endpoints may coincide), pin ownership and congestion history — in
	// dense flat arrays for O(1) map-free probes in the A* inner loop
	// (with a hash-map fallback above denseGridLimit cells). It covers
	// the pin cells' bounding box expanded by gridMargin until a rescue
	// search grows it to the world (growGrid); grown counts the growths.
	grid  *grid
	grown int
	// obstacles are the static obstacle boxes — module bodies and
	// distillation boxes, or the seam router's slabs — that every grid is
	// rasterized from.
	obstacles []geom.Box

	pinCell map[int]geom.Point // pin ID -> cell
	routes  map[int]geom.Path
	// routeBounds caches each routed path's bounding box by net ID (the
	// empty box while the net is unrouted) so rip-up victim scans skip
	// distant nets without walking their cells.
	routeBounds []geom.Box

	// friends[pin] lists net IDs sharing the pin.
	friends map[int][]int

	// eps caches per-net endpoint sets (indexed by net ID, which equals
	// the net's index in nets); pinRev holds the pin revision counters
	// that invalidate them. dirtyPins collects pins whose committed
	// incident paths were removed since the last dangling scan, so
	// repairDangling only re-checks nets that can actually have changed.
	eps       []netEndpoints
	pinRev    map[int]uint64
	dirtyPins map[int]bool

	// base is the pre-routing extent (placement bounds, or the caller's
	// slab extent for seam routing); finish unions routes and pin cells
	// into it. world clamps all search regions; it is the region of a
	// whole-world rescue and the box the grid grows to for one.
	base  geom.Box
	world geom.Box

	result *Result
}

// Run routes all nets of the placement.
func Run(p *place.Placement, opts Options) (*Result, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; RunContext is the threaded variant
	return RunContext(context.Background(), p, opts)
}

// RunContext is Run with cooperative cancellation: the routing rounds and
// the A* inner loop poll ctx, so a deadline aborts within a bounded number
// of expansions and returns an error wrapping faults.ErrCanceled.
func RunContext(ctx context.Context, p *place.Placement, opts Options) (*Result, error) {
	if err := faults.Canceled(ctx); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	r := newRouter(ctx, p, p.Nets, opts)
	if err := r.build(); err != nil {
		return nil, err
	}
	r.route()
	if r.ctxErr != nil {
		return nil, fmt.Errorf("route: %w", r.ctxErr)
	}
	r.finish()
	return r.result, nil
}

// newRouter returns a router over nets with empty routing state; p is nil
// for seam routing. build or buildSeams then fills in the obstacles, pin
// cells and grid.
func newRouter(ctx context.Context, p *place.Placement, nets []bridge.Net, opts Options) *router {
	return &router{
		p:           p,
		nets:        nets,
		opts:        opts,
		ctx:         ctx,
		pinCell:     map[int]geom.Point{},
		routes:      map[int]geom.Path{},
		routeBounds: make([]geom.Box, len(nets)),
		friends:     map[int][]int{},
		eps:         make([]netEndpoints, len(nets)),
		pinRev:      map[int]uint64{},
		dirtyPins:   map[int]bool{},
		result:      &Result{Routes: map[int]geom.Path{}},
	}
}

// tick samples the injected clock; it returns 0 when timing is disabled,
// so duration deltas computed from it collapse to zero.
func (r *router) tick() time.Duration {
	if r.opts.Clock == nil {
		return 0
	}
	return r.opts.Clock()
}

// checkCtx polls the context, caching the first cancellation error. It
// reports true when the router should unwind.
func (r *router) checkCtx() bool {
	if r.ctxErr != nil {
		return true
	}
	if err := faults.Canceled(r.ctx); err != nil {
		r.ctxErr = err
		return true
	}
	return false
}

// build populates obstacles, pin cells, friend groups and the per-cell
// grid. The grid box depends on the homed pin cells, so homePin tests
// obstacles in a raster over the placement bounds, which contain them
// all, and pins in a temporary map.
func (r *router) build() error {
	cl := r.p.Clust
	for m := range cl.NL.Modules {
		r.obstacles = append(r.obstacles, r.p.ModuleBox(m))
	}
	r.obstacles = append(r.obstacles, r.p.BoxObstacles()...)
	r.base = r.p.Bounds()
	ci := newCellIndexer(r.base)
	raster := make([]bool, ci.volume())
	for _, b := range r.obstacles {
		forEachCell(b.Intersect(r.base), func(c geom.Point) { raster[ci.index(c)] = true })
	}
	static := func(c geom.Point) bool { return r.base.Contains(c) && raster[ci.index(c)] }
	cellPin := map[geom.Point]int{}
	for _, n := range r.nets {
		for _, pid := range []int{n.PinA, n.PinB} {
			if _, ok := r.pinCell[pid]; ok {
				continue
			}
			pos, err := r.p.PinPos(pid)
			if err != nil {
				return fmt.Errorf("route: net %d: %w", n.ID, err)
			}
			pos, err = r.homePin(pid, pos, static, cellPin)
			if err != nil {
				return fmt.Errorf("route: net %d: %w", n.ID, err)
			}
			r.pinCell[pid] = pos
			cellPin[pos] = pid
		}
		r.friends[n.PinA] = append(r.friends[n.PinA], n.ID)
		r.friends[n.PinB] = append(r.friends[n.PinB], n.ID)
	}
	r.buildGrid()
	return nil
}

// forEachCell calls f on every cell of b, x-major, then y, then z.
func forEachCell(b geom.Box, f func(geom.Point)) {
	for x := b.Min.X; x < b.Max.X; x++ {
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for z := b.Min.Z; z < b.Max.Z; z++ {
				f(geom.Pt(x, y, z))
			}
		}
	}
}

// buildGrid derives the routable world from r.base and the pin cells —
// everything placed, expanded generously so detours around the hull
// remain possible — and builds the grid over the part of it that every
// search but degrade's whole-world rescue stays in: the pin cells'
// bounding box expanded by gridMargin, clamped to the world. Each search
// region is a net's pin box expanded by at most gridMargin, so it lies
// inside. The obstacles are rasterized into the grid and the pins set;
// each pin cell holds one pin, so map order cannot matter.
func (r *router) buildGrid() {
	bounds := r.base
	var pins geom.Box
	for _, c := range r.pinCell {
		bounds = bounds.UnionPoint(c)
		pins = pins.UnionPoint(c)
	}
	r.world = bounds.Expand(6 + 2*maxIterations*expandStep)
	r.grid = newGrid(pins.Expand(gridMargin).Intersect(r.world))
	r.grid.addObstacles(r.obstacles)
	for pid, c := range r.pinCell {
		r.grid.setPin(c, pid)
	}
}

// growGrid replaces the grid by one over the whole world, for a rescue
// search whose region leaves the grid box; dense or map-backed by
// denseGridLimit. The obstacles are rasterized afresh and every cell's
// net, pin, static bit and history copied, not re-derived: which net owns
// a cell two paths share depends on the commit order.
func (r *router) growGrid() {
	g := newGrid(r.world)
	g.addObstacles(r.obstacles)
	g.copyCells(r.grid)
	r.grid = g
	r.grown++
}

// homePin resolves pin-cell collisions: with the shared inter-tier routing
// plane, the natural pin cell of one module can coincide with a facing
// pin of the adjacent tier or sit inside an obstacle. The dual segment may
// exit its primal ring anywhere along the opening, so the pin is rehomed
// to the nearest free cell in the same plane above/below its module body:
// one that static (inside an obstacle) and cellPin (homed pins) both
// leave free.
func (r *router) homePin(pid int, pos geom.Point, static func(geom.Point) bool, cellPin map[geom.Point]int) (geom.Point, error) {
	free := func(c geom.Point) bool {
		if static(c) {
			return false
		}
		_, taken := cellPin[c]
		return !taken
	}
	if free(pos) {
		return pos, nil
	}
	pin := r.p.Clust.NL.Pins[pid]
	m := r.p.Clust.NL.Segments[pin.Segment].Module
	mb := r.p.ModuleBox(m)
	// Search the pin plane over the module footprint, nearest first.
	type cand struct {
		c geom.Point
		d int
	}
	var cands []cand
	for x := mb.Min.X; x < mb.Max.X; x++ {
		for y := mb.Min.Y; y < mb.Max.Y; y++ {
			c := geom.Pt(x, y, pos.Z)
			if free(c) {
				cands = append(cands, cand{c: c, d: c.Manhattan(pos)})
			}
		}
	}
	if len(cands) == 0 {
		return pos, fmt.Errorf("pin %d: no free cell in plane z=%d over module %d", pid, pos.Z, m)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		a, b := cands[i].c, cands[j].c
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	return cands[0].c, nil
}

// route performs the iterative routing with rip-up and reroute: a first
// pass over all nets in non-decreasing pin-distance order, a bounded
// negotiation loop that widens failed nets' regions and rips up blocking
// victims while charging congestion history, anchoring repair, and
// finally the degradation path for anything left.
func (r *router) route() {
	// First iteration: all nets, sorted by non-decreasing Manhattan
	// distance.
	order := make([]int, len(r.nets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return r.netDist(r.nets[order[i]]) < r.netDist(r.nets[order[j]])
	})

	margin := make([]int, len(r.nets))
	for i := range margin {
		margin[i] = initialMargin
	}

	failed := r.firstPass(order, margin)
	if r.ctxErr != nil {
		return
	}
	r.result.Iterations = 1

	// Negotiation bounds: a net is retried at most maxIterations times,
	// and the total rip-up budget is proportional to the netlist size —
	// without these, a handful of genuinely unroutable nets can thrash
	// the whole region indefinitely.
	attempts := make([]int, len(r.nets))
	ripBudget := 3 * len(r.nets)
	var abandoned []int
	for iter := 0; iter < maxIterations && len(failed) > 0; iter++ {
		r.result.Iterations++
		var still []int
		for _, idx := range failed {
			if r.checkCtx() {
				return
			}
			if attempts[idx] >= maxIterations {
				abandoned = append(abandoned, idx)
				continue
			}
			attempts[idx]++
			margin[idx] += expandStep
			n := r.nets[idx]
			if r.tryRoute(n, margin[idx]) {
				continue
			}
			if r.result.RippedUp >= ripBudget {
				still = append(still, idx)
				continue
			}
			// Negotiate: first rip up only the nets hugging the pins
			// (the usual blockage), then everything in the search
			// region; history charges accumulate on ripped cells.
			ripped := r.ripUpRegion(r.searchRegion(n, 1), n.ID)
			if !r.tryRoute(n, margin[idx]) {
				ripped = append(ripped, r.ripUpRegion(r.searchRegion(n, margin[idx]), n.ID)...)
			}
			if r.tryRoute(n, margin[idx]) {
				// Re-route the victims immediately (they keep their
				// original margins).
				for _, v := range ripped {
					if !r.tryRoute(r.nets[v], margin[v]+expandStep) {
						still = append(still, v)
					}
				}
				continue
			}
			// Restore victims and give up this round.
			for _, v := range ripped {
				if !r.tryRoute(r.nets[v], margin[v]) {
					still = append(still, v)
				}
			}
			still = append(still, idx)
		}
		failed = dedupInts(still)
	}
	failed = append(failed, abandoned...)
	// Restore the friend-net anchoring invariant: rip-ups may have left
	// nets terminating on paths that no longer exist. Nets the repair
	// cannot re-route join the failed set for the degradation path.
	failed = append(failed, r.repairDangling(margin)...)
	var exhausted []int
	for _, idx := range dedupInts(failed) {
		if _, routed := r.routes[r.nets[idx].ID]; !routed {
			exhausted = append(exhausted, idx)
		}
	}
	sort.Ints(exhausted)
	r.degrade(exhausted, attempts, margin)
}

// firstPass routes every net once, in the given order, committing each
// path before the next net searches, and returns the indices of the nets
// that failed, in order.
func (r *router) firstPass(order []int, margin []int) (failed []int) {
	for _, idx := range order {
		if r.checkCtx() {
			return failed
		}
		t0 := r.tick()
		path := r.searchNet(r.nets[idx], margin[idx])
		r.result.Stats.Search += r.tick() - t0
		r.result.Stats.Searches++
		if path != nil {
			r.commit(r.nets[idx], path)
			r.result.FirstPassRouted++
		} else {
			failed = append(failed, idx)
		}
	}
	return failed
}

// shovePenalty is the extra cost a shove-rescue search pays per foreign
// committed cell it crosses: large enough that any free detour up to a
// thousand steps is preferred, finite so an enclosed net can still buy
// its way out through the thinnest wall of committed paths.
const shovePenalty = 1024.0

// shoveRescueBudget bounds the extra shove rescues one degrade call may
// perform beyond one per originally exhausted net, so cascading victim
// reroutes cannot ripple forever.
const shoveRescueBudget = 4

// shoveRescue is the router's final escalation state: a whole-world
// search that may cross other nets' committed cells at shovePenalty
// each. On success exactly the crossed nets are ripped up (with the
// usual history charge), the rescued path is committed, and the victims
// are returned in ascending order for rerouting by the caller. Statics
// and foreign pin cells stay impassable, so a false return proves the
// net's terminals are enclosed by immovable geometry. Terminal cells are
// exempt from victim collection: ending on a friend's committed path is
// the ordinary Fig. 19 deformation, not a crossing.
func (r *router) shoveRescue(n bridge.Net, margin int) ([]int, bool) {
	t0 := r.tick()
	r.shove = true
	path := r.searchNet(n, margin)
	r.shove = false
	r.result.Stats.Search += r.tick() - t0
	r.result.Stats.Searches++
	if path == nil {
		return nil, false
	}
	victims := map[int]bool{}
	for i, c := range path {
		if i == 0 || i == len(path)-1 {
			continue
		}
		if id, ok := r.grid.netOwner(c); ok && id != n.ID {
			victims[id] = true
		}
	}
	out := make([]int, 0, len(victims))
	for id := range victims {
		out = append(out, id)
	}
	sort.Ints(out)
	for _, id := range out {
		for _, c := range r.routes[id] {
			r.grid.histAdd(c, 1.0)
			r.grid.clearNet(c, id)
		}
		r.dropRoute(id)
		r.result.RippedUp++
	}
	r.commit(n, path)
	return out, true
}

// degrade handles the nets left unrouted after the negotiation rounds.
// When Fallback is enabled each net gets a last-resort route over the
// whole expanded world; a net the plain fallback cannot place escalates
// to a shove rescue (see shoveRescue), whose ripped victims join the
// worklist and are rerouted the same way. Because shoves can strand a
// friend's borrowed terminal, each round ends with a dangling repair,
// and any nets it gives up on re-enter the worklist. The shove budget
// bounds the cascade; everything still unrouted when the work dries up
// lands in Failed. All rescued or failed nets get FailedNet diagnostics,
// and any rescue or failure marks the result Degraded.
func (r *router) degrade(exhausted []int, attempts, margin []int) {
	if len(exhausted) == 0 {
		return
	}
	// A margin this large makes searchRegion degenerate to the full
	// world (searchRegion clamps against it).
	worldMargin := r.world.Dx() + r.world.Dy() + r.world.Dz()
	shoveBudget := len(exhausted) + shoveRescueBudget
	if !r.opts.Fallback {
		shoveBudget = 0
	}
	// reason records the outcome per net index; "" means still unrouted.
	reason := map[int]string{}
	queue := append([]int(nil), exhausted...)
	r.inFallback = true
	shoved := false
	for len(queue) > 0 {
		work := queue
		queue = nil
		for qi := 0; qi < len(work); qi++ {
			if r.checkCtx() {
				r.inFallback = false
				return
			}
			idx := work[qi]
			n := r.nets[idx]
			if _, done := r.routes[n.ID]; done {
				continue // rerouted, or re-queued after already being rescued
			}
			if _, seen := reason[idx]; !seen {
				reason[idx] = ""
			}
			victim := reason[idx] != "" // ripped again after an earlier rescue
			if !r.opts.Fallback {
				reason[idx] = "negotiation exhausted (fallback disabled)"
				continue
			}
			if r.tryRoute(n, worldMargin) {
				if victim {
					reason[idx] = "ripped by a shove rescue; rerouted by whole-world fallback"
				} else {
					reason[idx] = "negotiation exhausted; rescued by whole-world fallback route"
				}
				continue
			}
			if shoveBudget > 0 {
				if victims, ok := r.shoveRescue(n, worldMargin); ok {
					shoveBudget--
					shoved = true
					reason[idx] = "negotiation exhausted; rescued by whole-world shove route"
					for _, v := range victims {
						if _, seen := reason[v]; !seen {
							reason[v] = "ripped by a shove rescue; rerouted by whole-world fallback"
						}
					}
					work = append(work, victims...)
					continue
				}
			}
			reason[idx] = "unroutable: negotiation and whole-world fallback both exhausted"
		}
		// Shove rescues can strand a friend that borrowed a victim's old
		// path; restore the anchoring invariant and requeue anything the
		// repair gives up on.
		if shoved {
			shoved = false
			for _, idx := range r.repairDangling(margin) {
				if _, routed := r.routes[r.nets[idx].ID]; !routed {
					queue = append(queue, idx)
				}
			}
			sort.Ints(queue)
		}
	}
	r.inFallback = false
	touched := make([]int, 0, len(reason))
	for idx := range reason {
		touched = append(touched, idx)
	}
	sort.Ints(touched)
	for _, idx := range touched {
		n := r.nets[idx]
		_, routed := r.routes[n.ID]
		fn := FailedNet{
			NetID:      n.ID,
			PinA:       r.pinCell[n.PinA],
			PinB:       r.pinCell[n.PinB],
			Manhattan:  r.netDist(n),
			Attempts:   attempts[idx] + 1,
			LastMargin: margin[idx],
			Fallback:   routed,
			Reason:     reason[idx],
		}
		if routed {
			r.result.FallbackNets = append(r.result.FallbackNets, n.ID)
		} else {
			if fn.Reason == "" {
				fn.Reason = "unroutable: negotiation and whole-world fallback both exhausted"
			}
			r.result.Failed = append(r.result.Failed, n.ID)
		}
		r.result.FailedNets = append(r.result.FailedNets, fn)
	}
	r.result.Degraded = len(r.result.FallbackNets) > 0 || len(r.result.Failed) > 0
}

func dedupInts(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func (r *router) netDist(n bridge.Net) int {
	return r.pinCell[n.PinA].Manhattan(r.pinCell[n.PinB])
}

// searchRegion returns net n's pin cells' bounding box expanded by margin
// and clamped to the world. A margin of at most gridMargin keeps it
// inside the initial grid box.
func (r *router) searchRegion(n bridge.Net, margin int) geom.Box {
	b := geom.CellBox(r.pinCell[n.PinA]).UnionPoint(r.pinCell[n.PinB]).Expand(margin)
	return b.Intersect(r.world)
}

// ripUpRegion removes routed nets whose cells intersect the region,
// charging congestion history, and returns the victims' net indices in
// ascending order. The scan walks net IDs in ascending order, so the
// victims come out sorted: a net whose cached bounding box misses the
// region is skipped without touching its cells, and the rest get an
// exact cell scan. Ripping a net can leave a friend that terminated on its
// path with a dangling terminal; repairDangling re-anchors those after
// the negotiation rounds instead of cascading rip-ups here (eager
// transitive ripping thrashes the rip budget on congested regions).
func (r *router) ripUpRegion(region geom.Box, exceptNet int) []int {
	t0 := r.tick()
	var out []int
	for id, b := range r.routeBounds {
		if id == exceptNet || !b.Intersects(region) {
			continue
		}
		for _, c := range r.routes[id] {
			if region.Contains(c) {
				out = append(out, id)
				break
			}
		}
	}
	for _, id := range out {
		for _, c := range r.routes[id] {
			r.grid.histAdd(c, 1.0)
			r.grid.clearNet(c, id)
		}
		r.dropRoute(id)
		r.result.RippedUp++
	}
	r.result.Stats.RipUp += r.tick() - t0
	r.result.Stats.RipUpScans++
	// net IDs equal their index in r.nets (bridge assigns them so).
	return out
}

// dropRoute removes net id's route bookkeeping — route map and bounds
// cache — and invalidates dependent state: the endpoint caches keyed off
// the net's pins and the dangling-scan dirty set. The caller has already
// cleared or will re-own the grid cells.
func (r *router) dropRoute(id int) {
	delete(r.routes, id)
	r.routeBounds[id] = geom.Box{}
	n := r.nets[id]
	r.pinRev[n.PinA]++
	r.pinRev[n.PinB]++
	r.dirtyPins[n.PinA] = true
	r.dirtyPins[n.PinB] = true
}

// anchored reports whether cell c is a legal terminal for net n's pin:
// the net's own (rehomed) pin cell, or a cell of a committed route of
// another net sharing the pin (the friend-net deformation).
func (r *router) anchored(netID, pin int, c geom.Point) bool {
	if c == r.pinCell[pin] {
		return true
	}
	for _, fid := range r.friends[pin] {
		if fid == netID {
			continue
		}
		for _, fc := range r.routes[fid] {
			if fc == c {
				return true
			}
		}
	}
	return false
}

// danglingNets returns the routed nets whose paths are no longer anchored
// at both ends — a friend whose path a terminal borrowed was ripped up
// without this net being re-routed. A terminal at the net's own pin cell
// never dangles, so nets merely sharing a pin cell stay out. Only nets
// incident to a dirty pin (one whose committed incident paths were
// removed since the last scan) are examined: a commit can only add anchor
// cells, so an undisturbed net cannot start dangling.
func (r *router) danglingNets() []int {
	var bad []int
	checked := map[int]bool{}
	for pid := range r.dirtyPins {
		for _, id := range r.friends[pid] {
			if checked[id] {
				continue
			}
			checked[id] = true
			path, ok := r.routes[id]
			if !ok {
				continue
			}
			n := r.nets[id]
			head, tail := path[0], path[len(path)-1]
			if (r.anchored(id, n.PinA, head) && r.anchored(id, n.PinB, tail)) ||
				(r.anchored(id, n.PinB, head) && r.anchored(id, n.PinA, tail)) {
				continue
			}
			bad = append(bad, id)
		}
	}
	clear(r.dirtyPins)
	sort.Ints(bad)
	return bad
}

// uncommit removes a net's committed route without charging congestion
// history (used by terminal repair, which is not a congestion event).
func (r *router) uncommit(id int) {
	for _, c := range r.routes[id] {
		r.grid.clearNet(c, id)
	}
	r.dropRoute(id)
}

// repairDangling restores the friend-net anchoring invariant after the
// negotiation rounds: nets whose borrowed terminal dangles are ripped and
// re-routed against the current committed paths. A net whose plain
// reroute fails gets one negotiate round of its own — rip up the pin
// shell, then the search region, reroute at an escalated margin and give
// the victims their immediate retry — under an absolute rip budget, so a
// dangling net in a congested region is not abandoned while ordinary
// negotiation failures get rip-up rounds. Re-routing one net can strand
// another that borrowed its old path, so the scan iterates to a
// fixpoint; any net still unanchored at the bound, or unroutable even
// after its rip-up round, is left unrouted and returned so the caller
// hands it to the degradation path.
func (r *router) repairDangling(margin []int) []int {
	var lost []int
	ripBudget := 4 * len(r.nets) // absolute bound on r.result.RippedUp
	for pass := 0; pass <= len(r.nets); pass++ {
		if r.checkCtx() {
			return lost
		}
		bad := r.danglingNets()
		if len(bad) == 0 {
			return lost
		}
		for _, id := range bad {
			r.uncommit(id)
		}
		if pass == len(r.nets) {
			// Fixpoint bound hit: leave the stragglers unrouted rather
			// than committing paths that violate the anchoring invariant.
			return append(lost, bad...)
		}
		for _, id := range bad {
			n := r.nets[id]
			m := margin[id] + expandStep
			if r.tryRoute(n, m) {
				continue
			}
			if r.result.RippedUp >= ripBudget {
				lost = append(lost, id)
				continue
			}
			ripped := r.ripUpRegion(r.searchRegion(n, 1), n.ID)
			if !r.tryRoute(n, m) {
				ripped = append(ripped, r.ripUpRegion(r.searchRegion(n, m), n.ID)...)
			}
			if !r.tryRoute(n, m) {
				lost = append(lost, id)
			}
			for _, v := range ripped {
				if !r.tryRoute(r.nets[v], margin[v]+expandStep) {
					lost = append(lost, v)
				}
			}
		}
	}
	return lost
}

// endpointsFor returns net n's cached endpoint sets, rebuilding them only
// when a commit or uncommit of a net incident to either pin bumped the
// pin's revision since the last build.
func (r *router) endpointsFor(n bridge.Net) *netEndpoints {
	ep := &r.eps[n.ID]
	ra, rb := r.pinRev[n.PinA], r.pinRev[n.PinB]
	if ep.valid && ep.revA == ra && ep.revB == rb {
		return ep
	}
	endpointRebuilds.Add(1)
	ep.starts = r.endpointCells(ep.starts[:0], n, n.PinA)
	ep.targets = r.endpointCells(ep.targets[:0], n, n.PinB)
	ep.sbox = cellsBounds(ep.starts)
	ep.tbox = cellsBounds(ep.targets)
	// Degenerate: a start cell that is already a target (friend paths
	// touching) routes with a single-cell path; both lists are
	// cellLess-sorted, so the first merge match is the lowest such cell
	// and the choice never depends on iteration order.
	ep.hasDeg = false
	for i, j := 0, 0; i < len(ep.starts) && j < len(ep.targets); {
		s, t := ep.starts[i], ep.targets[j]
		if s == t {
			ep.deg, ep.hasDeg = s, true
			break
		}
		if cellLess(s, t) {
			i++
		} else {
			j++
		}
	}
	ep.revA, ep.revB, ep.valid = ra, rb, true
	return ep
}

// endpointCells appends the pin's cell and (with FriendNets) every cell
// of every committed friend path at the pin, then sorts by cellLess and
// deduplicates.
func (r *router) endpointCells(dst []geom.Point, n bridge.Net, pin int) []geom.Point {
	dst = append(dst, r.pinCell[pin])
	if r.opts.FriendNets {
		for _, fid := range r.friends[pin] {
			if fid == n.ID {
				continue
			}
			dst = append(dst, r.routes[fid]...)
		}
	}
	sort.Slice(dst, func(i, j int) bool { return cellLess(dst[i], dst[j]) })
	out := dst[:0]
	for i, c := range dst {
		if i == 0 || c != dst[i-1] {
			out = append(out, c)
		}
	}
	return out
}

// cellsBounds returns the bounding box of the given cells.
func cellsBounds(cells []geom.Point) geom.Box {
	var b geom.Box
	for _, c := range cells {
		b = b.UnionPoint(c)
	}
	return b
}

// tryRoute attempts to route one net within its current search region,
// committing the path on success.
func (r *router) tryRoute(n bridge.Net, margin int) bool {
	if _, done := r.routes[n.ID]; done {
		return true
	}
	t0 := r.tick()
	path := r.searchNet(n, margin)
	r.result.Stats.Search += r.tick() - t0
	r.result.Stats.Searches++
	if path == nil {
		return false
	}
	r.commit(n, path)
	return true
}

// searchNet finds a path for one net within its current search region
// without committing it; the caller must not have routed n already.
func (r *router) searchNet(n bridge.Net, margin int) geom.Path {
	// Fault injection: force this net's normal attempts to fail so
	// degradation paths can be exercised under test. The fallback rescue
	// phase is exempt.
	if r.opts.FailNet != nil && !r.inFallback && r.opts.FailNet(n.ID) {
		return nil
	}
	ep := r.endpointsFor(n)
	if ep.hasDeg {
		return geom.Path{ep.deg}
	}
	return r.astar(n, ep, r.searchRegion(n, margin))
}

// commit records a routed path: the route map, the bounds cache, grid
// cell ownership (first owner wins — friend endpoints may coincide) and
// the pin revisions that invalidate dependent endpoint caches.
func (r *router) commit(n bridge.Net, path geom.Path) {
	t0 := r.tick()
	r.routes[n.ID] = path
	r.routeBounds[n.ID] = path.Bounds()
	for _, c := range path {
		if _, occ := r.grid.netOwner(c); !occ {
			r.grid.setNet(c, n.ID)
		}
	}
	r.pinRev[n.PinA]++
	r.pinRev[n.PinB]++
	r.result.Stats.Commit += r.tick() - t0
	r.result.Stats.Commits++
}

// finish records routes and computes the final bounds. The history
// statistics are the grid's counters, which histAdd keeps as charges
// land, so they do not depend on storage (dense array or map fallback).
func (r *router) finish() {
	r.result.HistoryCells, r.result.MaxHistory = r.grid.histCells, r.grid.maxHist
	b := r.base
	for id, path := range r.routes {
		r.result.Routes[id] = path
		b = b.Union(path.Bounds())
	}
	r.result.PinCells = make(map[int]geom.Point, len(r.pinCell))
	for pid, c := range r.pinCell {
		r.result.PinCells[pid] = c
		b = b.UnionPoint(c)
	}
	r.result.Bounds = b
}

// Verify checks that every routed path is connected, collision-free
// against module bodies/boxes, and does not overlap other nets except at
// shared friend cells (path endpoints). When the result carries PinCells,
// it additionally checks that every path terminal is anchored: at the
// net's own pin cell, or on the committed path of a friend net sharing
// that pin (the Fig. 19 deformation). A result with unrouted nets
// fails with an error wrapping faults.ErrUnroutable; a degraded
// (fallback-routed) result fails with an error wrapping
// faults.ErrDegraded, so a degraded routing can never verify silently.
func Verify(p *place.Placement, res *Result) error {
	if err := VerifyStructure(p, res); err != nil {
		return err
	}
	if len(res.Failed) > 0 {
		return fmt.Errorf("route: %w: %d nets unrouted: %v", faults.ErrUnroutable, len(res.Failed), res.Failed)
	}
	if res.Degraded || len(res.FallbackNets) > 0 {
		return fmt.Errorf("route: %w: %d fallback-routed nets: %v",
			faults.ErrDegraded, len(res.FallbackNets), res.FallbackNets)
	}
	return nil
}

// VerifyStructure is Verify without the strictness conditions: it checks
// path connectivity, obstacle freedom, friend-cell sharing and terminal
// anchoring of whatever was routed, but accepts results with unrouted or
// fallback-routed nets. Degradation-tolerant verifiers (the unbridged
// ablation differential in internal/check) use it to confirm a degraded
// routing is still structurally sound.
func VerifyStructure(p *place.Placement, res *Result) error {
	if err := verifyStructure(p, res); err != nil {
		return err
	}
	if res.PinCells == nil {
		return nil
	}
	return verifyTerminals(p, res)
}

// verifyStructure runs the structural path checks shared by strict and
// degraded verification.
func verifyStructure(p *place.Placement, res *Result) error {
	var routed geom.Box
	for id, path := range res.Routes {
		if len(path) == 0 {
			return fmt.Errorf("route: net %d has empty path", id)
		}
		if !path.Valid() {
			return fmt.Errorf("route: net %d path disconnected", id)
		}
		routed = routed.Union(path.Bounds())
	}
	// Rasterize the obstacles over the routed cells' bounding box: a cell
	// holds 1 + the lowest index of a module body covering it, so a
	// violation names the module it pierces, else -1 inside a
	// distillation box and 0 when free.
	ci := newCellIndexer(routed)
	obstacle := make([]int32, ci.volume())
	mark := func(b geom.Box, v int32) {
		forEachCell(b.Intersect(routed), func(c geom.Point) {
			if i := ci.index(c); obstacle[i] == 0 {
				obstacle[i] = v
			}
		})
	}
	for m := range p.Clust.NL.Modules {
		mark(p.ModuleBox(m), int32(m+1))
	}
	for _, b := range p.BoxObstacles() {
		mark(b, -1)
	}
	type use struct {
		id  int
		mid bool
	}
	uses := map[geom.Point][]use{}
	for id, path := range res.Routes {
		for i, c := range path {
			if v := obstacle[ci.index(c)]; v != 0 {
				return fmt.Errorf("route: net %d cell %v %s", id, c, obstacleName(v))
			}
			uses[c] = append(uses[c], use{id: id, mid: i != 0 && i != len(path)-1})
		}
	}
	// A cell may be shared only under the friend-net rule: at most one of
	// the sharing nets passes through it mid-path; the others terminate
	// there (ending on a friend's routed path is a valid topological
	// deformation).
	for c, us := range uses {
		mids := 0
		for _, u := range us {
			if u.mid {
				mids++
			}
		}
		if mids > 1 {
			return fmt.Errorf("route: %d nets overlap mid-path at %v", mids, c)
		}
	}
	return nil
}

// obstacleName describes a nonzero verification raster value: the
// pierced module by index, or a distillation box.
func obstacleName(v int32) string {
	if v > 0 {
		return fmt.Sprintf("inside module %d body", v-1)
	}
	return "inside a distillation-box obstacle"
}

// verifyTerminals enforces the friend-net anchoring invariant on every
// routed path: each terminal must sit at the net's own (rehomed) pin cell
// or on the committed path of another net sharing that pin, with one
// terminal anchoring each pin. A path that anchors neither orientation is
// dangling — the friend path its deformation borrowed was ripped up
// without this net being re-routed.
func verifyTerminals(p *place.Placement, res *Result) error {
	netByID := make(map[int]bridge.Net, len(p.Nets))
	friends := map[int][]int{}
	for _, n := range p.Nets {
		netByID[n.ID] = n
		friends[n.PinA] = append(friends[n.PinA], n.ID)
		friends[n.PinB] = append(friends[n.PinB], n.ID)
	}
	onFriendPath := func(netID, pin int, c geom.Point) bool {
		for _, fid := range friends[pin] {
			if fid == netID {
				continue
			}
			for _, fc := range res.Routes[fid] {
				if fc == c {
					return true
				}
			}
		}
		return false
	}
	ids := make([]int, 0, len(res.Routes))
	for id := range res.Routes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		n, ok := netByID[id]
		if !ok {
			return fmt.Errorf("route: routed net %d not in the netlist", id)
		}
		path := res.Routes[id]
		head, tail := path[0], path[len(path)-1]
		anchors := func(pin int, c geom.Point) bool {
			return c == res.PinCells[pin] || onFriendPath(id, pin, c)
		}
		if !(anchors(n.PinA, head) && anchors(n.PinB, tail)) &&
			!(anchors(n.PinB, head) && anchors(n.PinA, tail)) {
			return fmt.Errorf("route: net %d terminals %v..%v dangle: want pin cells %v/%v or a friend path at each end",
				id, head, tail, res.PinCells[n.PinA], res.PinCells[n.PinB])
		}
	}
	return nil
}
