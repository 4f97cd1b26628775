package place

import (
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

// mustGen generates a benchmark circuit, failing the test on error.
func mustGen(tb testing.TB, spec qc.BenchmarkSpec) *qc.Circuit {
	tb.Helper()
	c, err := spec.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}
