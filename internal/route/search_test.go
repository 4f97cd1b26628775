package route

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bridge"
	"repro/internal/geom"
	"repro/internal/place"
)

// newTestRouter builds a router over pl exactly as RunContext does, but
// stops before routing so tests can drive internal phases directly.
func newTestRouter(t *testing.T, pl *place.Placement, opts Options) *router {
	t.Helper()
	r := newRouter(context.Background(), pl, pl.Nets, opts)
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	return r
}

// kernelRouter builds a placement-free router over an empty world, for
// driving the A* kernels directly against synthetic obstacle grids.
func kernelRouter(world geom.Box) *router {
	return &router{
		opts:   DefaultOptions(),
		ctx:    context.Background(),
		grid:   newGrid(world),
		world:  world,
		result: &Result{Routes: map[int]geom.Path{}},
	}
}

// pathCost is the router's cost model read off a finished path: entering a
// cell costs 1 plus the weighted congestion history of that cell.
func pathCost(g *grid, p geom.Path, hw float64) float64 {
	cost := 0.0
	for _, c := range p[1:] {
		_, _, _, hist := g.cellState(c)
		cost += 1 + hw*hist
	}
	return cost
}

// checkLegalPath asserts p is a simple, 6-connected, obstacle-free path
// from start to target.
func checkLegalPath(t *testing.T, r *router, p geom.Path, start, target geom.Point) {
	t.Helper()
	if len(p) == 0 || p[0] != start || p[len(p)-1] != target {
		t.Fatalf("path endpoints %v..%v, want %v..%v", p[0], p[len(p)-1], start, target)
	}
	seen := map[geom.Point]bool{}
	for i, c := range p {
		if seen[c] {
			t.Fatalf("cell %v repeats: path is not simple", c)
		}
		seen[c] = true
		if !r.world.Contains(c) {
			t.Fatalf("cell %v outside the world", c)
		}
		if r.grid.isStatic(c) {
			t.Fatalf("cell %v is a static obstacle", c)
		}
		if i > 0 && p[i-1].Manhattan(c) != 1 {
			t.Fatalf("cells %v and %v not adjacent", p[i-1], c)
		}
	}
}

// TestBidiUniEquivalence drives both kernels over randomized obstacle
// grids with randomized congestion history and pins that they agree on
// reachability and on path cost, and that both paths are legal. The
// kernels may prefer different equal-cost geometry, so the paths
// themselves are not compared.
func TestBidiUniEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	world := geom.NewBox(0, 0, 0, 12, 12, 4)
	n := bridge.Net{ID: 0, PinA: 0, PinB: 1}
	found := 0
	for trial := 0; trial < 80; trial++ {
		r := kernelRouter(world)
		for x := world.Min.X; x < world.Max.X; x++ {
			for y := world.Min.Y; y < world.Max.Y; y++ {
				for z := world.Min.Z; z < world.Max.Z; z++ {
					c := geom.Pt(x, y, z)
					if rng.Float64() < 0.25 {
						r.grid.setStatic(c)
					} else if rng.Float64() < 0.2 {
						r.grid.histAdd(c, rng.Float64()*3)
					}
				}
			}
		}
		randFree := func() geom.Point {
			for {
				c := geom.Pt(
					world.Min.X+rng.Intn(world.Dx()),
					world.Min.Y+rng.Intn(world.Dy()),
					world.Min.Z+rng.Intn(world.Dz()),
				)
				if !r.grid.isStatic(c) {
					return c
				}
			}
		}
		start, target := randFree(), randFree()
		if start == target {
			continue
		}
		maxExp := 4 * world.Volume()
		uni := r.astarUni(n, []geom.Point{start}, []geom.Point{target},
			geom.CellBox(target), world, true, maxExp)
		bidi := r.astarBidi(n, start, target, world, true, maxExp)
		if (uni == nil) != (bidi == nil) {
			t.Fatalf("trial %d: reachability disagrees: uni=%v bidi=%v", trial, uni != nil, bidi != nil)
		}
		if uni == nil {
			continue
		}
		found++
		checkLegalPath(t, r, uni, start, target)
		checkLegalPath(t, r, bidi, start, target)
		hw := historyWeight
		if uc, bc := pathCost(r.grid, uni, hw), pathCost(r.grid, bidi, hw); uc != bc {
			t.Fatalf("trial %d: cost disagrees: uni=%v bidi=%v", trial, uc, bc)
		}
	}
	if found < 20 {
		t.Fatalf("only %d trials found a path; fixture too hostile to be meaningful", found)
	}
}

// TestBidiUniEquivalenceSparse re-runs a slice of the equivalence check in
// the sparse (hash-map slot) storage mode.
func TestBidiUniEquivalenceSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	world := geom.NewBox(0, 0, 0, 9, 9, 3)
	n := bridge.Net{ID: 0, PinA: 0, PinB: 1}
	for trial := 0; trial < 30; trial++ {
		r := kernelRouter(world)
		for i := 0; i < 40; i++ {
			r.grid.setStatic(geom.Pt(rng.Intn(9), rng.Intn(9), rng.Intn(3)))
		}
		start := geom.Pt(0, 0, 0)
		target := geom.Pt(8, 8, 2)
		if r.grid.isStatic(start) || r.grid.isStatic(target) {
			continue
		}
		maxExp := 4 * world.Volume()
		uni := r.astarUni(n, []geom.Point{start}, []geom.Point{target},
			geom.CellBox(target), world, false, maxExp)
		bidi := r.astarBidi(n, start, target, world, false, maxExp)
		if (uni == nil) != (bidi == nil) {
			t.Fatalf("trial %d: reachability disagrees", trial)
		}
		if uni == nil {
			continue
		}
		checkLegalPath(t, r, uni, start, target)
		checkLegalPath(t, r, bidi, start, target)
		if uc, bc := pathCost(r.grid, uni, 0), pathCost(r.grid, bidi, 0); uc != bc {
			t.Fatalf("trial %d: cost disagrees: uni=%v bidi=%v", trial, uc, bc)
		}
	}
}

// TestEndpointCacheReuse is the sortedStarts regression test: unchanged
// endpoints must not be re-collected (and re-sorted) across search
// attempts, and a commit on an incident pin must invalidate exactly the
// affected cache entry.
func TestEndpointCacheReuse(t *testing.T) {
	pl := routeFixture(t)
	r := newTestRouter(t, pl, DefaultOptions())
	n := r.nets[0]
	base := endpointRebuilds.Load()
	ep1 := r.endpointsFor(n)
	if got := endpointRebuilds.Load() - base; got != 1 {
		t.Fatalf("first lookup performed %d rebuilds, want 1", got)
	}
	ep2 := r.endpointsFor(n)
	if got := endpointRebuilds.Load() - base; got != 1 {
		t.Fatalf("unchanged endpoints were re-sorted (%d rebuilds after second lookup)", got)
	}
	if ep1 != ep2 {
		t.Fatal("second lookup returned a different cache entry")
	}
	// A commit on one of the net's pins bumps the pin revision and forces
	// one rebuild on the next lookup.
	r.commit(n, geom.Path{r.pinCell[n.PinA]})
	r.endpointsFor(n)
	if got := endpointRebuilds.Load() - base; got != 2 {
		t.Fatalf("lookup after an incident commit performed %d rebuilds total, want 2", got)
	}
}

// TestRoutingStatsCollected pins the Clock contract: with a clock
// injected the sub-stage durations and counters are populated, and the
// routed cells are identical to an untimed run (timing never affects
// routing output).
func TestRoutingStatsCollected(t *testing.T) {
	pl := routeFixture(t)
	opts := DefaultOptions()
	var fake int64
	opts.Clock = func() time.Duration { fake += 1000; return time.Duration(fake) }
	timed, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if timed.Stats.Searches == 0 || timed.Stats.Commits == 0 {
		t.Fatalf("counters not collected: %+v", timed.Stats)
	}
	if timed.Stats.Search == 0 || timed.Stats.Commit == 0 {
		t.Fatalf("durations not collected: %+v", timed.Stats)
	}
	opts.Clock = nil
	untimed, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if untimed.Stats.Search != 0 || untimed.Stats.Commit != 0 || untimed.Stats.RipUp != 0 {
		t.Fatalf("durations collected without a clock: %+v", untimed.Stats)
	}
	if untimed.Stats.Searches != timed.Stats.Searches {
		t.Fatalf("search counts differ with/without clock: %d vs %d",
			untimed.Stats.Searches, timed.Stats.Searches)
	}
	sameRouting(t, "timed vs untimed", timed, untimed)
}
