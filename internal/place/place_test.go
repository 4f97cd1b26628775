package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/modular"
	"repro/internal/qc"
)

func pipeline(t testing.TB, c *qc.Circuit) (*cluster.Clustering, []bridge.Net) {
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
	br, err := bridge.Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Build(nl, cluster.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cl, br.Nets
}

func quickOpts(iters int) Options {
	o := DefaultOptions()
	o.Iterations = iters
	o.Seed = 1
	return o
}

func TestPlaceSmallCircuit(t *testing.T) {
	c := qc.New("small", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	cl, nets := pipeline(t, c)
	p, err := Run(cl, nets, quickOpts(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckNoOverlap(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckTimeOrdering(); err != nil {
		t.Fatal(err)
	}
	w, h, d := p.Dims()
	if w <= 0 || h <= 0 || d <= 0 {
		t.Fatalf("degenerate dims %d×%d×%d", w, h, d)
	}
}

func TestPlaceTGateCircuit(t *testing.T) {
	c := qc.New("tg", 2)
	c.Append(qc.T(0), qc.CNOT(0, 1), qc.T(0), qc.T(1))
	cl, nets := pipeline(t, c)
	p, err := Run(cl, nets, quickOpts(200))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckNoOverlap(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckTimeOrdering(); err != nil {
		t.Fatal(err)
	}
}

func TestTSLResizeMakesEqualFootprints(t *testing.T) {
	c := qc.New("tsl", 1)
	c.Append(qc.T(0), qc.T(0), qc.T(0))
	cl, nets := pipeline(t, c)
	e, err := newEngine(cl, nets, quickOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	tsl := cl.TSLs[0]
	if len(tsl) != 3 {
		t.Fatalf("tsl: %v", tsl)
	}
	first := e.sizes[tsl[0]]
	for _, id := range tsl[1:] {
		if e.sizes[id] != first {
			t.Fatalf("TSL footprints differ: %v vs %v", e.sizes[id], first)
		}
	}
}

func TestSAImprovesOrMatchesInitialCost(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	cl, nets := pipeline(t, mustGen(t, spec))

	e0, err := newEngine(cl, nets, quickOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	initial := e0.cost()

	p, err := Run(cl, nets, quickOpts(400))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost > initial+1e-9 {
		t.Fatalf("SA made things worse: %.4f → %.4f", initial, p.Cost)
	}
	t.Logf("cost %.4f → %.4f over 400 iterations", initial, p.Cost)
}

func TestPlacementDeterministicForSeed(t *testing.T) {
	c := qc.New("det", 2)
	c.Append(qc.T(0), qc.CNOT(0, 1))
	cl1, nets1 := pipeline(t, c)
	p1, err := Run(cl1, nets1, quickOpts(150))
	if err != nil {
		t.Fatal(err)
	}
	cl2, nets2 := pipeline(t, c)
	p2, err := Run(cl2, nets2, quickOpts(150))
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Pos) != len(p2.Pos) {
		t.Fatal("different super counts")
	}
	for i := range p1.Pos {
		if p1.Pos[i] != p2.Pos[i] {
			t.Fatalf("super %d: %v vs %v", i, p1.Pos[i], p2.Pos[i])
		}
	}
}

func TestPinPositionsOutsideBodies(t *testing.T) {
	c := qc.New("pins", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2))
	cl, nets := pipeline(t, c)
	p, err := Run(cl, nets, quickOpts(50))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nets {
		for _, pid := range []int{n.PinA, n.PinB} {
			pos, err := p.PinPos(pid)
			if err != nil {
				t.Fatal(err)
			}
			for m := range cl.NL.Modules {
				if p.ModuleBox(m).Contains(pos) {
					t.Fatalf("pin %d at %v inside module %d body", pid, pos, m)
				}
			}
		}
	}
}

func TestTierAssignmentConsistent(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	cl, nets := pipeline(t, mustGen(t, spec))
	p, err := Run(cl, nets, quickOpts(100))
	if err != nil {
		t.Fatal(err)
	}
	if p.Tiers < 1 {
		t.Fatalf("tiers: %d", p.Tiers)
	}
	for s, tier := range p.TierOf {
		if tier < 0 || tier >= p.Tiers {
			t.Fatalf("super %d on tier %d of %d", s, tier, p.Tiers)
		}
	}
	t.Logf("%d supers on %d tiers", len(cl.Supers), p.Tiers)
}

func TestRunRejectsEmpty(t *testing.T) {
	cl := &cluster.Clustering{}
	if _, err := Run(cl, nil, quickOpts(10)); err == nil {
		t.Fatal("empty clustering accepted")
	}
}

func TestTierPitchOption(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	cl3, nets3 := pipeline(t, mustGen(t, spec))
	o3 := quickOpts(100)
	p3, err := Run(cl3, nets3, o3)
	if err != nil {
		t.Fatal(err)
	}
	cl4, nets4 := pipeline(t, mustGen(t, spec))
	o4 := quickOpts(100)
	o4.TierPitch = 4
	p4, err := Run(cl4, nets4, o4)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Tiers < 2 || p4.Tiers < 2 {
		t.Skip("need multiple tiers to observe pitch")
	}
	// Tier bases must be spaced by the pitch.
	zs3 := map[int]bool{}
	for _, pos := range p3.Pos {
		zs3[pos.Z] = true
	}
	for z := range zs3 {
		if (z-1)%DefaultTierPitch != 0 {
			t.Fatalf("pitch-3 tier base at z=%d", z)
		}
	}
	for _, pos := range p4.Pos {
		if (pos.Z-1)%4 != 0 {
			t.Fatalf("pitch-4 tier base at z=%d", pos.Z)
		}
	}
	// Wider pitch yields a taller placement for the same tier count.
	_, h3, _ := p3.Dims()
	_, h4, _ := p4.Dims()
	if p3.Tiers == p4.Tiers && h4 <= h3 {
		t.Fatalf("pitch 4 should be taller: %d vs %d", h4, h3)
	}
}

func TestMarginSeparatesBodies(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	cl, nets := pipeline(t, mustGen(t, spec))
	o := quickOpts(100)
	o.Margin = 2
	p, err := Run(cl, nets, o)
	if err != nil {
		t.Fatal(err)
	}
	// With margin 2 every pair of same-tier supers is ≥ 4 apart in x or y.
	for a := 0; a < len(cl.Supers); a++ {
		for b := a + 1; b < len(cl.Supers); b++ {
			if p.TierOf[a] != p.TierOf[b] {
				continue
			}
			ba, bb := p.SuperBox(a), p.SuperBox(b)
			if ba.Expand(2).Intersects(bb) {
				t.Fatalf("supers %d and %d closer than the margin: %v %v", a, b, ba, bb)
			}
		}
	}
}

// placementDigest is the hex SHA-256 of a placement's Pos (x, y, z per
// super) followed by its TierOf, each value as a little-endian int64.
func placementDigest(p *Placement) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, q := range p.Pos {
		put(q.X)
		put(q.Y)
		put(q.Z)
	}
	for _, t := range p.TierOf {
		put(t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlacementGolden pins the SA trajectory: every corpus circuit at the
// automatic move budget, seeds 1 and 7, one and two chains, must reproduce
// the move count, cost bits, wirelength and placement digest recorded
// before the annealer's moves were made allocation-free. A change to the
// PRNG draw order, the node walk order, the TSL sort or the cost
// arithmetic shows up here even when it leaves placements legal.
func TestPlacementGolden(t *testing.T) {
	golden := []struct {
		circuit    string
		seed       int64
		chains     int
		moves      int
		costBits   uint64
		wireLength int
		digest     string
	}{
		{"benchmark", 1, 1, 12716, 0x3ffac9b58ab65462, 5258, "be9944bb055a94486c9093245af70358501b2364c22514a4d5acc929cd1c2b38"},
		{"benchmark", 1, 2, 12716, 0x3ffac9b58ab65462, 5258, "be9944bb055a94486c9093245af70358501b2364c22514a4d5acc929cd1c2b38"},
		{"benchmark", 7, 1, 12671, 0x3ffb3e1efda15982, 6044, "b835ff43f3703d98c09e28d89389a532ec6da42c29aea83d6393167ffd93eaba"},
		{"benchmark", 7, 2, 12671, 0x3ff728f0113f6e86, 4802, "f52cf088dd55489954d446828add6b99ec00caeab407f96be6064ac419d6abbe"},
		{"tgate", 1, 1, 1120, 0x3fe7819502224a52, 330, "9e186fd74395baef58086612e9a2d24ccbfd71216f25f2cf1ed3db5ff588edb9"},
		{"tgate", 1, 2, 1103, 0x3fe9b95cd64d9821, 350, "29841a94ca7ea8860e1fd0bc2428283cee4c82172eeca5d1e437a8d7ec04ca98"},
		{"tgate", 7, 1, 1130, 0x3fe9713ffdf70f1e, 296, "56c3d14726c6d2d3ae1c8aed464f28c3fbf41f66e4b84b8ba9d15cfcd6de53a3"},
		{"tgate", 7, 2, 1106, 0x3fe70e33a7fe3be6, 286, "8a67dc809505332d4161dc6c50498b909c4805d19ce6fc39a3ee94357aac6a5c"},
		{"three-cnot", 1, 1, 149, 0x3ff6e62433b79891, 26, "92835a3cb31fdba636f3f47bf67fe6bcfc1f84c1dc561128c6e464f417edc93a"},
		{"three-cnot", 1, 2, 149, 0x3ff6e62433b79891, 26, "92835a3cb31fdba636f3f47bf67fe6bcfc1f84c1dc561128c6e464f417edc93a"},
		{"three-cnot", 7, 1, 152, 0x3ff6e62433b79891, 26, "f891e1efa7da2b761b5d997fa864bcf624a78c8a9ef3298695de9b0a681df85e"},
		{"three-cnot", 7, 2, 152, 0x3ff6e62433b79891, 26, "f891e1efa7da2b761b5d997fa864bcf624a78c8a9ef3298695de9b0a681df85e"},
	}
	circuits := corpus(t)
	for _, g := range golden {
		label := fmt.Sprintf("%s/seed%d/chains%d", g.circuit, g.seed, g.chains)
		cl, nets := pipeline(t, circuits[g.circuit]())
		o := DefaultOptions()
		o.Seed = g.seed
		o.Chains = g.chains
		p, err := Run(cl, nets, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if p.Moves != g.moves || math.Float64bits(p.Cost) != g.costBits || p.WireLength != g.wireLength {
			t.Errorf("%s: moves %d cost %#x wirelength %d, want %d %#x %d",
				label, p.Moves, math.Float64bits(p.Cost), p.WireLength, g.moves, g.costBits, g.wireLength)
		}
		if d := placementDigest(p); d != g.digest {
			t.Errorf("%s: placement digest %s, want %s", label, d, g.digest)
		}
	}
}

// TestMoveCycleAllocatesNothing pins that one SA step off the best-cost
// path (perturb, repack the touched tiers, evaluate Φ, undo) allocates
// nothing once the engine's buffers have grown to the largest trees they
// hold.
func TestMoveCycleAllocatesNothing(t *testing.T) {
	cl, nets := pipeline(t, corpus(t)["benchmark"]())
	e, err := newEngine(cl, nets, quickOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.trees) < 2 {
		t.Fatalf("benchmark packs on %d tier(s); the inter-tree moves need two", len(e.trees))
	}
	cycle := func() {
		mv, ok := e.perturb()
		if !ok {
			return
		}
		e.repackMove(mv)
		_ = e.cost()
		e.undo(mv)
	}
	for i := 0; i < 2000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(2000, cycle); allocs != 0 {
		t.Fatalf("a move cycle allocates %.0f objects, want 0", allocs)
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
