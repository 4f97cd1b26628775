package route

import (
	"repro/internal/geom"
)

// denseGridLimit bounds the cell count up to which the grid's per-cell
// state (static obstacles, net ownership, pin ownership, congestion
// history) is stored in flat arrays indexed by a box-local cell index.
// Larger grid boxes — in practice only a world a rescue grew the grid
// to — fall back to the original hash maps: a pathological bounding
// volume must not force a multi-hundred-megabyte allocation.
const denseGridLimit = 4 << 20

// denseSearchLimit bounds the search-region volume up to which one A*
// attempt uses pooled flat-array scratch state. Regions beyond it (only
// the whole-world fallback on extreme layouts) use the map-based search.
// A variable rather than a constant so tests can force the sparse path.
var denseSearchLimit = 4 << 20

// cellIndexer maps lattice cells of a bounding box to dense linear
// indices in a fixed x-major, then y, then z order.
type cellIndexer struct {
	box    geom.Box
	ny, nz int
}

// newCellIndexer builds an indexer over b.
func newCellIndexer(b geom.Box) cellIndexer {
	return cellIndexer{box: b, ny: b.Dy(), nz: b.Dz()}
}

// volume returns the number of indexable cells.
func (ci cellIndexer) volume() int { return ci.box.Volume() }

// index returns the linear index of p, which must lie inside the box.
func (ci cellIndexer) index(p geom.Point) int {
	return ((p.X-ci.box.Min.X)*ci.ny+(p.Y-ci.box.Min.Y))*ci.nz + (p.Z - ci.box.Min.Z)
}

// point is the inverse of index.
func (ci cellIndexer) point(i int) geom.Point {
	z := i % ci.nz
	i /= ci.nz
	y := i % ci.ny
	x := i / ci.ny
	return geom.Pt(ci.box.Min.X+x, ci.box.Min.Y+y, ci.box.Min.Z+z)
}

// denseCell packs the per-cell owners and congestion history into one
// 16-byte struct so the A* inner loop's cellState probe touches a single
// cache line instead of three parallel arrays. The static-obstacle flag
// lives in the grid's blocked byte.
type denseCell struct {
	hist     float64
	net, pin int32
}

// Bits of grid.blocked: a cell is owned by a net or a pin, static, or
// both.
const (
	blockedOwned  uint8 = 1
	blockedStatic uint8 = 2
)

// grid holds the router's per-cell state over one box: static
// obstacles, net ownership, pin ownership and congestion history. The
// router sizes the box to the cells its searches reach before a rescue
// and grows it to the whole world only for one (see router.buildGrid).
// Boxes up to denseGridLimit cells use one flat array of denseCell
// indexed by cellIndexer (the A* inner loop then runs without a single
// map operation); larger boxes degrade to the original hash maps
// transparently.
type grid struct {
	box   geom.Box
	dense bool
	idx   cellIndexer

	cells []denseCell
	// blocked parallels cells: blockedOwned when the cell is net- or
	// pin-owned, blockedStatic when it is a static obstacle. The A*
	// kernels test this one byte on the fast path and fall back to the
	// full cellState/passable check only for blocked cells (the owner
	// might be the searching net itself), keeping the common free-cell
	// probe inside a 16× denser array.
	blocked []uint8
	// histCells counts cells carrying a positive history charge and
	// maxHist is the largest charge; histAdd keeps both. While histCells
	// is zero (the whole first pass) every step costs exactly 1 and the
	// kernels skip the per-neighbor history load altogether.
	histCells int
	maxHist   float64

	staticM map[geom.Point]bool
	netAtM  map[geom.Point]int
	pinAtM  map[geom.Point]int
	histM   map[geom.Point]float64
}

// newGrid builds an empty per-cell state store over box.
func newGrid(box geom.Box) *grid {
	g := &grid{box: box}
	if v := box.Volume(); v > 0 && v <= denseGridLimit {
		g.dense = true
		g.idx = newCellIndexer(box)
		g.cells = make([]denseCell, v)
		g.blocked = make([]uint8, v)
		for i := range g.cells {
			g.cells[i].net = -1
			g.cells[i].pin = -1
		}
		return g
	}
	g.staticM = map[geom.Point]bool{}
	g.netAtM = map[geom.Point]int{}
	g.pinAtM = map[geom.Point]int{}
	g.histM = map[geom.Point]float64{}
	return g
}

// in reports whether p is indexable (inside the grid box). Cells outside
// it carry no state: callers only probe cells of search regions, and
// astar grows the grid before searching a region that leaves the box.
func (g *grid) in(p geom.Point) bool { return g.box.Contains(p) }

// addObstacles rasterizes the obstacle boxes, clipped to the grid box,
// as static cells.
func (g *grid) addObstacles(obstacles []geom.Box) {
	for _, b := range obstacles {
		forEachCell(b.Intersect(g.box), g.setStatic)
	}
}

// copyCells copies every cell of old that carries state — net, pin,
// static bit, history — into g, whose box contains old's and whose cells
// carry no net, pin or history yet. The history counters follow, since
// histAdd onto a fresh cell sets it; put may see a map-backed cell once
// per map holding it, so it charges a cell only once.
func (g *grid) copyCells(old *grid) {
	put := func(p geom.Point) {
		net, pin, static, hist := old.cellState(p)
		if static {
			g.setStatic(p)
		}
		if net >= 0 {
			g.setNet(p, int(net))
		}
		if pin >= 0 {
			g.setPin(p, int(pin))
		}
		if hist > 0 && g.histAt(p) == 0 {
			g.histAdd(p, hist)
		}
	}
	if old.dense {
		for i, b := range old.blocked {
			if b != 0 || old.cells[i].hist > 0 {
				put(old.idx.point(i))
			}
		}
		return
	}
	for p := range old.staticM {
		put(p)
	}
	for p := range old.netAtM {
		put(p)
	}
	for p := range old.pinAtM {
		put(p)
	}
	for p := range old.histM {
		put(p)
	}
}

// setStatic marks p as a static obstacle cell.
func (g *grid) setStatic(p geom.Point) {
	if !g.in(p) {
		return
	}
	if g.dense {
		g.blocked[g.idx.index(p)] |= blockedStatic
		return
	}
	g.staticM[p] = true
}

// isStatic reports whether p is a static obstacle cell.
func (g *grid) isStatic(p geom.Point) bool {
	if !g.in(p) {
		return false
	}
	if g.dense {
		return g.blocked[g.idx.index(p)]&blockedStatic != 0
	}
	return g.staticM[p]
}

// setNet records net id as the owner of cell p (first owner wins is the
// caller's rule; setNet overwrites unconditionally).
func (g *grid) setNet(p geom.Point, id int) {
	if !g.in(p) {
		return
	}
	if g.dense {
		i := g.idx.index(p)
		g.cells[i].net = int32(id)
		g.blocked[i] |= blockedOwned
		return
	}
	g.netAtM[p] = id
}

// clearNet removes net id's ownership of p if it is the recorded owner.
func (g *grid) clearNet(p geom.Point, id int) {
	if !g.in(p) {
		return
	}
	if g.dense {
		i := g.idx.index(p)
		if c := &g.cells[i]; c.net == int32(id) {
			c.net = -1
			if c.pin < 0 {
				g.blocked[i] &^= blockedOwned
			}
		}
		return
	}
	if g.netAtM[p] == id {
		delete(g.netAtM, p)
	}
}

// netOwner returns the net occupying p, if any.
func (g *grid) netOwner(p geom.Point) (int, bool) {
	if !g.in(p) {
		return 0, false
	}
	if g.dense {
		if id := g.cells[g.idx.index(p)].net; id >= 0 {
			return int(id), true
		}
		return 0, false
	}
	id, ok := g.netAtM[p]
	return id, ok
}

// setPin records pin pid as owning cell p.
func (g *grid) setPin(p geom.Point, pid int) {
	if !g.in(p) {
		return
	}
	if g.dense {
		i := g.idx.index(p)
		g.cells[i].pin = int32(pid)
		g.blocked[i] |= blockedOwned
		return
	}
	g.pinAtM[p] = pid
}

// pinOwner returns the pin homed at p, if any.
func (g *grid) pinOwner(p geom.Point) (int, bool) {
	if !g.in(p) {
		return 0, false
	}
	if g.dense {
		if pid := g.cells[g.idx.index(p)].pin; pid >= 0 {
			return int(pid), true
		}
		return 0, false
	}
	pid, ok := g.pinAtM[p]
	return pid, ok
}

// cellState returns every per-cell fact the A* inner loop needs — the
// owning net (-1 when free), the owning pin (-1 when none), the
// static-obstacle flag and the congestion history — with a single bounds
// check and index computation instead of one per probe.
func (g *grid) cellState(p geom.Point) (net, pin int32, static bool, hist float64) {
	if !g.in(p) {
		return -1, -1, false, 0
	}
	if g.dense {
		i := g.idx.index(p)
		c := &g.cells[i]
		return c.net, c.pin, g.blocked[i]&blockedStatic != 0, c.hist
	}
	net, pin = -1, -1
	if id, ok := g.netAtM[p]; ok {
		net = int32(id)
	}
	if pid, ok := g.pinAtM[p]; ok {
		pin = int32(pid)
	}
	return net, pin, g.staticM[p], g.histM[p]
}

// histAt returns the accumulated congestion history charge of p.
func (g *grid) histAt(p geom.Point) float64 {
	if !g.in(p) {
		return 0
	}
	if g.dense {
		return g.cells[g.idx.index(p)].hist
	}
	return g.histM[p]
}

// histAdd charges v (positive) onto p's congestion history and keeps
// the history cell count and maximum charge.
func (g *grid) histAdd(p geom.Point, v float64) {
	if !g.in(p) {
		return
	}
	var h float64
	if g.dense {
		c := &g.cells[g.idx.index(p)]
		if c.hist == 0 {
			g.histCells++
		}
		c.hist += v
		h = c.hist
	} else {
		if g.histM[p] == 0 {
			g.histCells++
		}
		g.histM[p] += v
		h = g.histM[p]
	}
	g.maxHist = max(g.maxHist, h)
}

// hasHist reports whether any cell carries history charge; while false,
// every step costs exactly 1 and the kernels skip history loads.
func (g *grid) hasHist() bool { return g.histCells > 0 }
