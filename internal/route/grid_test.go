package route

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/bridge"
	"repro/internal/geom"
	"repro/internal/place"
	"repro/internal/qc"
)

// newSparseGrid builds the map-backed grid newGrid uses past
// denseGridLimit, over a small box.
func newSparseGrid(box geom.Box) *grid {
	return &grid{box: box,
		staticM: map[geom.Point]bool{},
		netAtM:  map[geom.Point]int{},
		pinAtM:  map[geom.Point]int{},
		histM:   map[geom.Point]float64{},
	}
}

// forceSparseSearch routes subsequent runs through the map-based A*
// fallback regardless of region volume; the returned func restores the
// dense path.
func forceSparseSearch() func() {
	old := denseSearchLimit
	denseSearchLimit = 0
	return func() { denseSearchLimit = old }
}

// TestCellIndexerRoundTrip pins the index/point bijection over a small
// asymmetric box, including negative coordinates.
func TestCellIndexerRoundTrip(t *testing.T) {
	b := geom.NewBox(-2, 1, -3, 3, 4, 0)
	ci := newCellIndexer(b)
	if ci.volume() != b.Volume() {
		t.Fatalf("volume %d, want %d", ci.volume(), b.Volume())
	}
	seen := make([]bool, ci.volume())
	for x := b.Min.X; x < b.Max.X; x++ {
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for z := b.Min.Z; z < b.Max.Z; z++ {
				p := geom.Pt(x, y, z)
				i := ci.index(p)
				if i < 0 || i >= ci.volume() {
					t.Fatalf("index(%v) = %d out of range", p, i)
				}
				if seen[i] {
					t.Fatalf("index %d assigned twice", i)
				}
				seen[i] = true
				if got := ci.point(i); got != p {
					t.Fatalf("point(index(%v)) = %v", p, got)
				}
			}
		}
	}
}

// TestGridDenseSparseAgree drives the dense grid and the map fallback
// through an identical operation sequence and asserts every probe and the
// history statistics agree cell-for-cell.
func TestGridDenseSparseAgree(t *testing.T) {
	world := geom.NewBox(0, 0, 0, 6, 5, 4)
	dense := newGrid(world)
	sparse := newSparseGrid(world)
	if !dense.dense || sparse.dense {
		t.Fatal("fixture storage modes wrong")
	}
	for _, g := range []*grid{dense, sparse} {
		g.setStatic(geom.Pt(1, 1, 1))
		g.setNet(geom.Pt(2, 2, 2), 0) // net 0: zero-value collision hazard
		g.setNet(geom.Pt(3, 3, 3), 7)
		g.clearNet(geom.Pt(3, 3, 3), 5) // wrong owner: must be a no-op
		g.clearNet(geom.Pt(2, 2, 0), 0) // unowned cell: must be a no-op
		g.setPin(geom.Pt(0, 0, 0), 0)
		g.setPin(geom.Pt(4, 4, 3), 9)
		g.histAdd(geom.Pt(5, 0, 0), 1)
		g.histAdd(geom.Pt(5, 0, 0), 0.5)
		g.histAdd(geom.Pt(0, 4, 2), 2)
	}
	for x := world.Min.X; x < world.Max.X; x++ {
		for y := world.Min.Y; y < world.Max.Y; y++ {
			for z := world.Min.Z; z < world.Max.Z; z++ {
				p := geom.Pt(x, y, z)
				if a, b := dense.isStatic(p), sparse.isStatic(p); a != b {
					t.Fatalf("isStatic(%v): dense %v sparse %v", p, a, b)
				}
				an, aok := dense.netOwner(p)
				bn, bok := sparse.netOwner(p)
				if an != bn || aok != bok {
					t.Fatalf("netOwner(%v): dense (%d,%v) sparse (%d,%v)", p, an, aok, bn, bok)
				}
				ap, apok := dense.pinOwner(p)
				bp, bpok := sparse.pinOwner(p)
				if ap != bp || apok != bpok {
					t.Fatalf("pinOwner(%v): dense (%d,%v) sparse (%d,%v)", p, ap, apok, bp, bpok)
				}
				if a, b := dense.histAt(p), sparse.histAt(p); a != b {
					t.Fatalf("histAt(%v): dense %v sparse %v", p, a, b)
				}
			}
		}
	}
	dc, dm := dense.histCells, dense.maxHist
	sc, sm := sparse.histCells, sparse.maxHist
	if dc != sc || dm != sm {
		t.Fatalf("history counters: dense (%d,%v) sparse (%d,%v)", dc, dm, sc, sm)
	}
	if dc != 2 || dm != 2 {
		t.Fatalf("history counters = (%d,%v), want (2,2)", dc, dm)
	}
	if owner, ok := dense.netOwner(geom.Pt(2, 2, 2)); !ok || owner != 0 {
		t.Fatalf("net 0 ownership lost: (%d,%v)", owner, ok)
	}
}

// TestGridBlockedByte pins the dense grid's blocked byte: a cell stays
// blocked while it is static or pin-owned, releasing its net frees only a
// cell that is neither, and the static flag it carries survives net
// ownership. It also pins the 16-byte cell the flag was moved out of.
func TestGridBlockedByte(t *testing.T) {
	if got := unsafe.Sizeof(denseCell{}); got != 16 {
		t.Fatalf("denseCell is %d bytes, want 16", got)
	}
	g := newGrid(geom.NewBox(0, 0, 0, 4, 1, 1))
	static, pinned, free := geom.Pt(0, 0, 0), geom.Pt(1, 0, 0), geom.Pt(2, 0, 0)
	g.setStatic(static)
	g.setPin(pinned, 4)
	for _, p := range []geom.Point{static, pinned, free} {
		g.setNet(p, 3)
		g.clearNet(p, 3)
	}
	blocked := func(p geom.Point) bool { return g.blocked[g.idx.index(p)] != 0 }
	if !blocked(static) || !g.isStatic(static) {
		t.Fatal("releasing a static cell's net cleared its static flag")
	}
	if _, _, st, _ := g.cellState(static); !st {
		t.Fatal("cellState lost the static flag")
	}
	if !blocked(pinned) || g.isStatic(pinned) {
		t.Fatal("pin-owned cell: want blocked and not static")
	}
	if blocked(free) {
		t.Fatal("releasing a free cell's net left it blocked")
	}
}

// TestGridOutOfWorldProbes pins that cells outside the grid box carry no
// state and that writes to them are dropped rather than panicking, in
// both storage modes. The box is smaller than the router's world, so an
// out-of-box cell may well lie inside the world: astar grows the grid
// before any search reaches one (TestGridExtent).
func TestGridOutOfWorldProbes(t *testing.T) {
	box := geom.NewBox(0, 0, 0, 2, 2, 2)
	for _, g := range []*grid{newGrid(box), newSparseGrid(box)} {
		out := geom.Pt(-1, 5, 0)
		g.setStatic(out)
		g.setNet(out, 3)
		g.setPin(out, 4)
		g.histAdd(out, 1)
		g.addObstacles([]geom.Box{geom.NewBox(-3, 0, 0, 0, 2, 2)})
		if g.isStatic(out) || g.isStatic(geom.Pt(-1, 0, 0)) {
			t.Fatalf("dense=%v: out-of-box static stuck", g.dense)
		}
		if _, ok := g.netOwner(out); ok {
			t.Fatalf("dense=%v: out-of-box net owner stuck", g.dense)
		}
		if _, ok := g.pinOwner(out); ok {
			t.Fatalf("dense=%v: out-of-box pin owner stuck", g.dense)
		}
		if g.histAt(out) != 0 || g.histCells != 0 || g.maxHist != 0 {
			t.Fatalf("dense=%v: out-of-box history stuck", g.dense)
		}
	}
}

// TestGridCopyCells pins the growth copy in every pair of storage modes:
// after the obstacles are rasterized into a larger grid and the old
// grid's cells copied in, every cell of the old box reads as before —
// net, pin, static bit, history — the cells outside it carry only the
// obstacles, and the history counters carry over.
func TestGridCopyCells(t *testing.T) {
	small := geom.NewBox(1, 1, 0, 4, 3, 2)
	big := geom.NewBox(0, 0, 0, 6, 4, 3)
	obstacles := []geom.Box{geom.NewBox(0, 0, 0, 2, 1, 1), geom.NewBox(3, 2, 1, 6, 4, 3)}
	modes := map[string]func(geom.Box) *grid{"dense": newGrid, "sparse": newSparseGrid}
	for oldName, oldGrid := range modes {
		for newName, newGridOf := range modes {
			label := oldName + "->" + newName
			old := oldGrid(small)
			old.addObstacles(obstacles)
			old.setPin(geom.Pt(1, 1, 0), 0)
			old.setNet(geom.Pt(1, 1, 0), 5) // a pin cell a net also owns
			old.setNet(geom.Pt(2, 2, 1), 0)
			old.setNet(geom.Pt(3, 2, 1), 7) // a net across a static cell
			old.histAdd(geom.Pt(2, 2, 1), 1)
			old.histAdd(geom.Pt(2, 1, 0), 1)
			old.histAdd(geom.Pt(2, 1, 0), 1)
			g := newGridOf(big)
			g.addObstacles(obstacles)
			g.copyCells(old)
			if g.histCells != old.histCells || g.maxHist != old.maxHist || g.histCells != 2 || g.maxHist != 2 {
				t.Fatalf("%s: history counters (%d,%v), want (2,2)", label, g.histCells, g.maxHist)
			}
			forEachCell(big, func(p geom.Point) {
				net, pin, static, hist := g.cellState(p)
				if !small.Contains(p) {
					want := false
					for _, b := range obstacles {
						want = want || b.Contains(p)
					}
					if net != -1 || pin != -1 || static != want || hist != 0 {
						t.Fatalf("%s: cell %v outside the old box: (%d,%d,%v,%v), want static %v only",
							label, p, net, pin, static, hist, want)
					}
					return
				}
				wn, wp, ws, wh := old.cellState(p)
				if net != wn || pin != wp || static != ws || hist != wh {
					t.Fatalf("%s: cell %v: (%d,%d,%v,%v), want (%d,%d,%v,%v)",
						label, p, net, pin, static, hist, wn, wp, ws, wh)
				}
			})
		}
	}
}

// TestScratchGenerationReuse pins that searchState reuse does not leak
// state between searches: g-scores and target stamps set in one
// generation are invisible after reset, in both storage modes, and a
// generation-counter wraparound invalidates everything.
func TestScratchGenerationReuse(t *testing.T) {
	region := geom.NewBox(0, 0, 0, 2, 2, 2)
	c := geom.Pt(1, 1, 0)
	for _, dense := range []bool{true, false} {
		var s searchState
		s.reset(region, dense)
		i := s.slot(c)
		s.setG(i, 1.5, -1)
		s.markTarget(i)
		if !s.seen(i) || s.g[i] != 1.5 || s.parent[i] != -1 || !s.isTarget(i) {
			t.Fatalf("dense=%v: setG/markTarget not visible in their own generation", dense)
		}
		s.reset(region, dense)
		i = s.slot(c)
		if s.seen(i) || s.isTarget(i) {
			t.Fatalf("dense=%v: stale state visible after reset", dense)
		}
		// Wraparound: a forced gen overflow must invalidate everything.
		s.setG(i, 2, -1)
		s.cur = ^uint32(0)
		s.gen[i] = s.cur
		s.tgen[i] = s.cur
		s.reset(region, dense)
		i = s.slot(c)
		if s.cur == 0 || s.seen(i) || s.isTarget(i) {
			t.Fatalf("dense=%v: wraparound left stale state (cur=%d)", dense, s.cur)
		}
	}
}

// routeFixture builds a bridged, placed benchmark circuit large enough to
// exercise negotiation.
func routeFixture(t testing.TB) *place.Placement {
	t.Helper()
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	return placed(t, mustGen(t, spec), true, 300)
}

// sameRouting asserts two routing results are identical in every
// deterministic field.
func sameRouting(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Routes, b.Routes) {
		t.Fatalf("%s: routes differ", label)
	}
	if !reflect.DeepEqual(sortedInts(a.Failed), sortedInts(b.Failed)) {
		t.Fatalf("%s: failed sets differ: %v vs %v", label, a.Failed, b.Failed)
	}
	if a.FirstPassRouted != b.FirstPassRouted {
		t.Fatalf("%s: first-pass counts differ: %d vs %d", label, a.FirstPassRouted, b.FirstPassRouted)
	}
	if a.Iterations != b.Iterations || a.RippedUp != b.RippedUp {
		t.Fatalf("%s: iteration/rip-up counts differ: (%d,%d) vs (%d,%d)",
			label, a.Iterations, a.RippedUp, b.Iterations, b.RippedUp)
	}
	if a.HistoryCells != b.HistoryCells || a.MaxHistory != b.MaxHistory {
		t.Fatalf("%s: history stats differ: (%d,%v) vs (%d,%v)",
			label, a.HistoryCells, a.MaxHistory, b.HistoryCells, b.MaxHistory)
	}
	if !reflect.DeepEqual(a.PinCells, b.PinCells) {
		t.Fatalf("%s: pin cells differ", label)
	}
	if a.Bounds != b.Bounds {
		t.Fatalf("%s: bounds differ: %v vs %v", label, a.Bounds, b.Bounds)
	}
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// TestRoutingDeterministicAcrossRuns pins bit-identical routing for a
// fixed placement: two runs must agree on every route, count and the
// HistoryCells/MaxHistory statistics. This is the regression test for the
// finish() history accounting, which now uses an order-independent
// aggregate instead of map iteration.
func TestRoutingDeterministicAcrossRuns(t *testing.T) {
	pl := routeFixture(t)
	a, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sameRouting(t, "run-vs-run", a, b)
}

// TestDenseSparseSearchAgree pins that the dense flat-array A* and the
// map-based fallback return identical routes by re-running the same
// placement with the sparse path forced and comparing every field.
func TestDenseSparseSearchAgree(t *testing.T) {
	pl := routeFixture(t)
	dense, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	restore := forceSparseSearch()
	defer restore()
	sparse, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sameRouting(t, "dense-vs-sparse", dense, sparse)
}

// routed runs the router over pl as RunContext does and returns it, so
// tests can inspect the grid it ended with.
func routed(t *testing.T, pl *place.Placement, opts Options) *router {
	t.Helper()
	r := newTestRouter(t, pl, opts)
	r.route()
	if r.ctxErr != nil {
		t.Fatal(r.ctxErr)
	}
	return r
}

// checkGridBox asserts the grid rule: the world is the base and pin cells
// expanded by 46 cells, and the grid covers the pin cells' bounding box
// expanded by 27, clamped to the world.
func checkGridBox(t *testing.T, label string, r *router) {
	t.Helper()
	var pins geom.Box
	for _, c := range r.pinCell {
		pins = pins.UnionPoint(c)
	}
	if want := r.base.Union(pins).Expand(46); r.world != want {
		t.Errorf("%s: world %v, want %v", label, r.world, want)
	}
	if want := pins.Expand(27).Intersect(r.world); r.grid.box != want {
		t.Errorf("%s: grid box %v, want %v", label, r.grid.box, want)
	}
}

// TestGridExtent pins the grid's extent and what it costs. Routing the
// golden placements and a seam fixture leaves the grid on the rule's box,
// never grown (a wider margin would show here as lost memory). A
// FailNet-forced rescue grows it exactly once, to the world. And one
// routing of the route/negotiated-astar kernel's placement allocates
// under 30 MiB: 17–24 MB with a warm or cold search-state pool, where a
// grid over the whole world made it allocate 39–47 MB. The race
// detector's pool drops state at random, so that build skips the bound.
func TestGridExtent(t *testing.T) {
	var pl4gt10 *place.Placement
	for _, c := range []struct {
		circuit string
		seed    int64
	}{{"4gt10-v1_81", 1}, {"4gt10-v1_81", 7}, {"4gt4-v0_73", 1}, {"4gt4-v0_73", 7}} {
		label := fmt.Sprintf("%s/seed%d", c.circuit, c.seed)
		spec, err := qc.BenchmarkByName(c.circuit)
		if err != nil {
			t.Fatal(err)
		}
		po := place.DefaultOptions()
		po.Seed = c.seed
		po.Chains = 1
		pl := placedWith(t, mustGen(t, spec), true, po)
		if pl4gt10 == nil {
			pl4gt10 = pl
		}
		r := routed(t, pl, DefaultOptions())
		checkGridBox(t, label, r)
		if r.grown != 0 {
			t.Errorf("%s: grid grew %d times", label, r.grown)
		}
		t.Logf("%s: grid %d cells, world %d", label, r.grid.box.Volume(), r.world.Volume())
	}

	obstacles, nets, base := seamFixture()
	bnets := make([]bridge.Net, len(nets))
	for i := range nets {
		bnets[i] = bridge.Net{ID: i, PinA: 2 * i, PinB: 2*i + 1}
	}
	r := newRouter(context.Background(), nil, bnets, DefaultOptions())
	if err := r.buildSeams(obstacles, nets, base); err != nil {
		t.Fatal(err)
	}
	r.route()
	checkGridBox(t, "seams", r)
	if r.grown != 0 || len(r.routes) != len(nets) {
		t.Errorf("seams: grid grew %d times, %d of %d routed", r.grown, len(r.routes), len(nets))
	}

	opts := DefaultOptions()
	opts.FailNet = func(id int) bool { return id%20 == 0 }
	r = routed(t, pl4gt10, opts)
	if r.grown != 1 || r.grid.box != r.world || !r.grid.dense {
		t.Errorf("forced rescue: grid grew %d times to %v (dense %v), want once to the world %v",
			r.grown, r.grid.box, r.grid.dense, r.world)
	}

	if raceEnabled {
		return
	}
	// The kernel's placement: 4gt10-v1_81, seed 1, 2000 moves, one chain.
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	po := place.DefaultOptions()
	po.Seed = 1
	po.Iterations = 2000
	po.Chains = 1
	pl := placedWith(t, mustGen(t, spec), true, po)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(pl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 30 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Errorf("kernel placement routing allocated %d bytes, want at most %d", alloc, bound)
	} else {
		t.Logf("kernel placement routing allocated %d bytes", alloc)
	}
}
