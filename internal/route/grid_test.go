package route

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/place"
	"repro/internal/qc"
)

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
	sparse := &grid{world: world,
		staticM: map[geom.Point]bool{},
		netAtM:  map[geom.Point]int{},
		pinAtM:  map[geom.Point]int{},
		histM:   map[geom.Point]float64{},
	}
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
	dc, dm := dense.histStats()
	sc, sm := sparse.histStats()
	if dc != sc || dm != sm {
		t.Fatalf("histStats: dense (%d,%v) sparse (%d,%v)", dc, dm, sc, sm)
	}
	if dc != 2 || dm != 2 {
		t.Fatalf("histStats = (%d,%v), want (2,2)", dc, dm)
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

// TestGridOutOfWorldProbes pins that cells outside the world carry no
// state and that writes to them are dropped rather than panicking.
func TestGridOutOfWorldProbes(t *testing.T) {
	world := geom.NewBox(0, 0, 0, 2, 2, 2)
	g := newGrid(world)
	out := geom.Pt(-1, 5, 0)
	g.setStatic(out)
	g.setNet(out, 3)
	g.histAdd(out, 1)
	if g.isStatic(out) {
		t.Fatal("out-of-world static stuck")
	}
	if _, ok := g.netOwner(out); ok {
		t.Fatal("out-of-world net owner stuck")
	}
	if g.histAt(out) != 0 {
		t.Fatal("out-of-world history stuck")
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
