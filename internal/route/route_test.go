package route

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/icm"
	"repro/internal/modular"
	"repro/internal/place"
	"repro/internal/qc"
)

func placed(t testing.TB, c *qc.Circuit, bridged bool, saIters int) *place.Placement {
	t.Helper()
	po := place.DefaultOptions()
	po.Iterations = saIters
	po.Seed = 7
	return placedWith(t, c, bridged, po)
}

// placedWith runs the pipeline prefix — decompose, ICM conversion,
// canonical form, modular netlist, bridging (when bridged), clustering —
// and places the result with po.
func placedWith(t testing.TB, c *qc.Circuit, bridged bool, po place.Options) *place.Placement {
	t.Helper()
	r, err := decompose.Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := icm.FromDecomposed(r.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	d, err := canonical.Build(ic)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := modular.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	br, err := bridge.Run(nl, bridged)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Build(nl, cluster.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Run(cl, br.Nets, po)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestRouteSmallCircuit(t *testing.T) {
	c := qc.New("small", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	pl := placed(t, c, true, 150)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed nets: %v", res.Failed)
	}
	if len(res.Routes) != len(pl.Nets) {
		t.Fatalf("routed %d of %d nets", len(res.Routes), len(pl.Nets))
	}
	if err := Verify(pl, res); err != nil {
		t.Fatal(err)
	}
}

func TestRouteEndpointsMatchPins(t *testing.T) {
	c := qc.New("pins", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2))
	pl := placed(t, c, false, 100)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	for _, n := range pl.Nets {
		path := res.Routes[n.ID]
		a, err := pl.PinPos(n.PinA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pl.PinPos(n.PinB)
		if err != nil {
			t.Fatal(err)
		}
		// Without friend nets, endpoints are exactly the pins (order may
		// flip because A* starts from either end).
		first, last := path[0], path[len(path)-1]
		if !(first == a && last == b) && !(first == b && last == a) {
			t.Fatalf("net %d endpoints %v..%v want %v..%v", n.ID, first, last, a, b)
		}
	}
}

func TestRouteTGateWithBoxes(t *testing.T) {
	c := qc.New("t", 2)
	c.Append(qc.T(0), qc.CNOT(0, 1))
	pl := placed(t, c, true, 200)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed nets: %v (routed %d)", res.Failed, len(res.Routes))
	}
	if err := Verify(pl, res); err != nil {
		t.Fatal(err)
	}
	if res.Bounds.Empty() {
		t.Fatal("empty bounds")
	}
}

func TestFriendNetsReduceWirelength(t *testing.T) {
	// Bridged circuits produce shared pins; friend-net-aware routing must
	// use no more wire than pin-to-pin routing.
	mk := func() *qc.Circuit {
		c := qc.New("friend", 4)
		c.Append(qc.CNOT(0, 1), qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(1, 2), qc.CNOT(2, 3))
		return c
	}
	plWith := placed(t, mk(), true, 150)
	oWith := DefaultOptions()
	resWith, err := Run(plWith, oWith)
	if err != nil {
		t.Fatal(err)
	}
	plWithout := placed(t, mk(), true, 150)
	oWithout := DefaultOptions()
	oWithout.FriendNets = false
	resWithout, err := Run(plWithout, oWithout)
	if err != nil {
		t.Fatal(err)
	}
	if len(resWith.Failed) > len(resWithout.Failed) {
		t.Fatalf("friend nets reduced routability: %d vs %d failures",
			len(resWith.Failed), len(resWithout.Failed))
	}
	if resWith.WireCells() > resWithout.WireCells() {
		t.Fatalf("friend nets increased wire: %d vs %d cells",
			resWith.WireCells(), resWithout.WireCells())
	}
	t.Logf("wire cells: %d (friend-aware) vs %d (plain)",
		resWith.WireCells(), resWithout.WireCells())
}

func TestVerifyCatchesOverlap(t *testing.T) {
	c := qc.New("v", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2))
	pl := placed(t, c, false, 100)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) < 2 {
		t.Skip("need at least two routes")
	}
	// Corrupt: copy one net's mid-path into another's.
	var ids []int
	for id := range res.Routes {
		ids = append(ids, id)
	}
	a, b := ids[0], ids[1]
	if len(res.Routes[a]) >= 3 {
		mid := res.Routes[a][1]
		path := res.Routes[b]
		if len(path) >= 3 {
			path[1] = mid
			res.Routes[b] = path
			if err := Verify(pl, res); err == nil {
				t.Fatal("corrupted overlap not caught")
			}
		}
	}
}

func TestRouteBenchmarkScale(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale routing in -short mode")
	}
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	pl := placed(t, mustGen(t, spec), true, 500)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	routed := len(res.Routes)
	total := len(pl.Nets)
	if routed < total*9/10 {
		t.Fatalf("only %d/%d nets routed", routed, total)
	}
	if err := Verify(pl, res); err != nil {
		t.Fatal(err)
	}
	firstPct := 100 * res.FirstPassRouted / total
	t.Logf("%s: %d/%d routed (%d%% first pass), %d iterations, %d rip-ups, bounds %v",
		spec.Name, routed, total, firstPct, res.Iterations, res.RippedUp, res.Bounds.Size())
}

func TestPinCellsUniqueAfterHoming(t *testing.T) {
	// Benchmark-scale placement with the shared inter-tier plane: facing
	// pins may collide geometrically; homePin must give every pin a
	// unique, obstacle-free cell.
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	pl := placed(t, mustGen(t, spec), true, 0)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed nets: %v", res.Failed)
	}
	// Verify rejects mid-path overlaps, which is where colliding pin
	// homes would surface.
	if err := Verify(pl, res); err != nil {
		t.Fatal(err)
	}
}

func TestRipUpBudgetBoundsWork(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	pl := placed(t, mustGen(t, spec), true, 0)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.RippedUp > 10*len(pl.Nets)+len(pl.Nets) {
		t.Fatalf("rip-ups %d exceed the budget for %d nets", res.RippedUp, len(pl.Nets))
	}
}

func TestBlockedDetection(t *testing.T) {
	c := qc.New("b", 2)
	c.Append(qc.CNOT(0, 1))
	pl := placed(t, c, false, 50)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every route cell must avoid module interiors.
	for id, path := range res.Routes {
		for _, cell := range path {
			for m := range pl.Clust.NL.Modules {
				if pl.ModuleBox(m).Contains(cell) {
					t.Fatalf("net %d passes through module %d at %v", id, m, cell)
				}
			}
		}
	}
	_ = geom.Pt(0, 0, 0)
}

// Verify must name the module a corrupted path pierces. The result is
// hand-built (PinCells nil) so only the structural checks run against a
// path driven straight through module 0's body.
func TestVerifyRejectsPathThroughModule(t *testing.T) {
	c := qc.New("pierce", 2)
	c.Append(qc.CNOT(0, 1))
	pl := placed(t, c, false, 50)
	mb := pl.ModuleBox(0)
	y, z := mb.Min.Y, mb.Min.Z
	var path geom.Path
	for x := mb.Min.X - 1; x <= mb.Max.X; x++ {
		path = append(path, geom.Pt(x, y, z))
	}
	res := &Result{Routes: map[int]geom.Path{0: path}}
	err := Verify(pl, res)
	if err == nil {
		t.Fatal("path through a module body not caught")
	}
	if !strings.Contains(err.Error(), "inside module 0 body") {
		t.Fatalf("error does not name the pierced module: %v", err)
	}
}

// Verify must name a distillation box a corrupted path enters. The path
// starts at the box's minimum cell and runs along x out through its far
// face, so its first cell is inside the box and no module body can be
// named first.
func TestVerifyRejectsPathThroughDistillationBox(t *testing.T) {
	c := qc.New("box", 2)
	c.Append(qc.T(0), qc.CNOT(0, 1))
	pl := placed(t, c, true, 200)
	boxes := pl.BoxObstacles()
	if len(boxes) == 0 {
		t.Fatal("a T gate placed no distillation box")
	}
	b := boxes[0]
	var path geom.Path
	for x := b.Min.X; x <= b.Max.X; x++ {
		path = append(path, geom.Pt(x, b.Min.Y, b.Min.Z))
	}
	res := &Result{Routes: map[int]geom.Path{0: path}}
	err := Verify(pl, res)
	if err == nil {
		t.Fatal("path through a distillation box not caught")
	}
	if !strings.Contains(err.Error(), "inside a distillation-box obstacle") {
		t.Fatalf("error does not name the distillation box: %v", err)
	}
}

// Verify must reject a routed path whose terminal is anchored neither at
// its own pin cell nor on a friend's path. Truncating a real route's first
// cell detaches that terminal exactly the way a ripped-up friend would.
func TestVerifyRejectsDanglingFriendTerminal(t *testing.T) {
	c := qc.New("dangle", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2))
	// Unbridged: no shared pins, so no friend path can legitimize the
	// detached terminal.
	pl := placed(t, c, false, 100)
	res, err := Run(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed nets: %v", res.Failed)
	}
	if res.PinCells == nil {
		t.Fatal("router did not record PinCells")
	}
	if err := Verify(pl, res); err != nil {
		t.Fatalf("intact result must verify: %v", err)
	}
	corrupted := -1
	for _, n := range pl.Nets {
		if len(res.Routes[n.ID]) >= 3 {
			res.Routes[n.ID] = res.Routes[n.ID][1:]
			corrupted = n.ID
			break
		}
	}
	if corrupted < 0 {
		t.Skip("no route long enough to truncate")
	}
	err = Verify(pl, res)
	if err == nil {
		t.Fatalf("dangling terminal on net %d not caught", corrupted)
	}
	if !strings.Contains(err.Error(), "dangle") {
		t.Fatalf("unexpected error for dangling terminal: %v", err)
	}
}

// mustGen generates a benchmark circuit, failing the test on error.
func mustGen(tb testing.TB, spec qc.BenchmarkSpec) *qc.Circuit {
	tb.Helper()
	c, err := spec.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// Verify must refuse degraded results: forced net failures either land in
// FallbackNets (fallback on, ErrDegraded) or Failed (fallback off,
// ErrUnroutable) — in neither case may Verify pass silently.
func TestVerifyRejectsDegradedRouting(t *testing.T) {
	c := qc.New("degraded", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	pl := placed(t, c, true, 150)

	opts := DefaultOptions()
	opts.FailNet = func(int) bool { return true }
	res, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.FallbackNets) == 0 {
		t.Fatalf("want fallback-degraded result, got degraded=%v fallback=%d failed=%d",
			res.Degraded, len(res.FallbackNets), len(res.Failed))
	}
	if err := Verify(pl, res); !errors.Is(err, faults.ErrDegraded) {
		t.Fatalf("want ErrDegraded from Verify, got %v", err)
	}

	opts.Fallback = false
	res, err = Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.Failed) == 0 {
		t.Fatalf("want unrouted nets, got degraded=%v failed=%d", res.Degraded, len(res.Failed))
	}
	for _, f := range res.FailedNets {
		if f.Reason == "" || f.Manhattan <= 0 {
			t.Fatalf("net %d: incomplete diagnostics: %+v", f.NetID, f)
		}
	}
	if err := Verify(pl, res); !errors.Is(err, faults.ErrUnroutable) {
		t.Fatalf("want ErrUnroutable from Verify, got %v", err)
	}
}

// TestNegotiationReanchorsFriendTerminals drives a deterministic
// negotiation round over a bridged circuit (shared pins, friend-anchored
// terminals): fault injection makes one friend-connected net fail its
// first attempts, so the router rips up the routed friends around its
// pins — exactly the paths other nets' terminals borrowed — before the
// net finally routes. Every victim must be re-routed and every terminal
// re-anchored onto a live path; Verify's terminal walk rejects any route
// left pointing at freed cells.
func TestNegotiationReanchorsFriendTerminals(t *testing.T) {
	c := qc.New("renego", 4)
	c.Append(qc.CNOT(0, 1), qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(1, 2), qc.CNOT(2, 3))
	pl := placed(t, c, true, 150)

	// Fail the first friend-connected net (a net sharing a pin with
	// another) so its negotiation rounds rip up routed friends.
	sharedPins := map[int]int{}
	for _, n := range pl.Nets {
		sharedPins[n.PinA]++
		sharedPins[n.PinB]++
	}
	failTarget := -1
	for _, n := range pl.Nets {
		if sharedPins[n.PinA] > 1 || sharedPins[n.PinB] > 1 {
			failTarget = n.ID
			break
		}
	}
	if failTarget < 0 {
		t.Fatal("bridging produced no shared pins; cannot exercise friend anchoring")
	}

	opts := DefaultOptions()
	attempts := 0
	opts.FailNet = func(id int) bool {
		if id != failTarget {
			return false
		}
		attempts++
		return attempts <= 2 // fail the first pass and one negotiation try
	}
	res, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RippedUp == 0 {
		t.Fatalf("negotiation never ripped up a friend (net %d, %d attempts)", failTarget, attempts)
	}
	if len(res.Failed) != 0 || res.Degraded {
		t.Fatalf("negotiation did not recover: failed=%v degraded=%v", res.Failed, res.Degraded)
	}
	if len(res.Routes) != len(pl.Nets) {
		t.Fatalf("routed %d of %d nets", len(res.Routes), len(pl.Nets))
	}
	if err := Verify(pl, res); err != nil {
		t.Fatalf("post-negotiation verify: %v", err)
	}
}

// routingDigest hashes a routing result's routes in net-ID order (each
// net's ID, path length and cells) followed by its Failed and
// FallbackNets lists.
func routingDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	ids := make([]int, 0, len(res.Routes))
	for id := range res.Routes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		path := res.Routes[id]
		put(id)
		put(len(path))
		for _, c := range path {
			put(c.X)
			put(c.Y)
			put(c.Z)
		}
	}
	for _, list := range [][]int{res.Failed, res.FallbackNets} {
		put(len(list))
		for _, id := range list {
			put(id)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRoutingGolden pins the router's trajectory: two benchmark circuits,
// placed at the automatic move budget with seeds 1 and 7 on one chain,
// must reproduce the recorded routes, failure lists, round and rip-up
// counts, history cell count and sub-stage counters. A change to net
// order, rip-up victim order, the A* tie-breaking or the commit protocol
// shows up here even when it leaves every route legal. At least one case
// must rip up victims, or ripUpRegion goes unpinned.
func TestRoutingGolden(t *testing.T) {
	golden := []struct {
		circuit                         string
		seed                            int64
		firstPass, iterations, rippedUp int
		historyCells                    int
		searches, commits, ripUpScans   int
		digest                          string
	}{
		{"4gt10-v1_81", 1, 331, 2, 44, 908, 396, 394, 1, "d6679d7876b377b6f712b181cd836b89a75e4161d1cda69a74f93b32e634e4ff"},
		{"4gt10-v1_81", 7, 330, 2, 13, 188, 351, 348, 1, "8ff5b9d700328059744e6a1e69ffeca777471a2784d5e6c04008a23810e257a0"},
		{"4gt4-v0_73", 1, 658, 2, 338, 7686, 1083, 1066, 6, "c963f4ff622e2471c7531b5442ee720d5ef27b584c34da139128e5db81ae46e4"},
		{"4gt4-v0_73", 7, 667, 2, 44, 1073, 729, 726, 1, "c4d126754fbf540b8b82cdaf5ec7a84d08016bfd1686051191e97293994ba7be"},
	}
	scans := 0
	for _, g := range golden {
		label := fmt.Sprintf("%s/seed%d", g.circuit, g.seed)
		spec, err := qc.BenchmarkByName(g.circuit)
		if err != nil {
			t.Fatal(err)
		}
		po := place.DefaultOptions()
		po.Seed = g.seed
		po.Chains = 1
		pl := placedWith(t, mustGen(t, spec), true, po)
		res, err := Run(pl, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		st := res.Stats
		if res.FirstPassRouted != g.firstPass || res.Iterations != g.iterations || res.RippedUp != g.rippedUp ||
			res.HistoryCells != g.historyCells {
			t.Errorf("%s: first pass %d, iterations %d, ripped up %d, history cells %d; want %d %d %d %d",
				label, res.FirstPassRouted, res.Iterations, res.RippedUp, res.HistoryCells,
				g.firstPass, g.iterations, g.rippedUp, g.historyCells)
		}
		if st.Searches != g.searches || st.Commits != g.commits || st.RipUpScans != g.ripUpScans {
			t.Errorf("%s: searches %d, commits %d, rip-up scans %d; want %d %d %d",
				label, st.Searches, st.Commits, st.RipUpScans, g.searches, g.commits, g.ripUpScans)
		}
		if d := routingDigest(res); d != g.digest {
			t.Errorf("%s: routing digest %s, want %s", label, d, g.digest)
		}
		scans += st.RipUpScans
	}
	if scans == 0 {
		t.Fatal("no golden case scans for rip-up victims; ripUpRegion is uncovered")
	}
}
