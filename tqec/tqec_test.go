package tqec

import (
	"testing"

	"repro/internal/icm"
	"repro/internal/metrics"
	"repro/internal/qc"
)

func TestCompileMotivatingExample(t *testing.T) {
	// The paper's Fig. 4/5 three-CNOT circuit.
	c := qc.New("fig4", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	opts := FastOptions()
	opts.Place.Seed = 11
	res, err := Compile(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.CanonicalVolume != 54 {
		t.Fatalf("canonical volume: %d want 54 (Fig. 4)", res.CanonicalVolume)
	}
	if res.Volume <= 0 {
		t.Fatalf("final volume: %d", res.Volume)
	}
	if res.Volume >= res.CanonicalVolume*3 {
		t.Fatalf("compression absent: %d vs canonical %d", res.Volume, res.CanonicalVolume)
	}
	if len(res.Routing.Failed) != 0 {
		t.Fatalf("unrouted nets: %v", res.Routing.Failed)
	}
}

func TestCompileWithTGates(t *testing.T) {
	c := qc.New("t2", 2)
	c.Append(qc.T(0), qc.CNOT(0, 1), qc.T(1))
	opts := FastOptions()
	opts.Place.Seed = 3
	res, err := Compile(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	s := res.ICM.Stats()
	if s.NumA != 2 || s.NumY != 2 {
		t.Fatalf("injections: %d A, %d Y", s.NumA, s.NumY)
	}
	// Boxes integrated: BoxVolume accounted but not added to Volume.
	if res.BoxVolume != 2*192+2*18 {
		t.Fatalf("box volume: %d", res.BoxVolume)
	}
	if len(res.Routing.Failed) != 0 {
		t.Fatalf("unrouted nets: %v", res.Routing.Failed)
	}
}

func TestCompileBenchmarkSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	opts := FastOptions()
	opts.Place.Iterations = 600
	opts.Place.Seed = 5
	res, err := CompileBenchmark("4gt10-v1_81", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.CompressionRatio() <= 1.0 {
		t.Fatalf("no compression: ratio %.2f (volume %d vs canonical %d + boxes %d)",
			res.CompressionRatio(), res.Volume, res.CanonicalVolume, res.BoxVolume)
	}
	routed := len(res.Routing.Routes)
	total := len(res.Bridging.Nets)
	if routed < total {
		t.Errorf("routed %d/%d nets", routed, total)
	}
	t.Logf("4gt10: dims %v, volume %d, canonical+boxes %d, ratio %.2f, first-pass %d%%",
		res.Dims, res.Volume, res.CanonicalVolume+res.BoxVolume,
		res.CompressionRatio(), 100*res.Routing.FirstPassRouted/total)
}

func TestAblationsChangeBehavior(t *testing.T) {
	mk := func() *qc.Circuit {
		spec, err := qc.BenchmarkByName("4gt10-v1_81")
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Auto SA budget: a starved placement makes the unbridged ablation's
	// routing pathologically slow.
	base := DefaultOptions()
	base.Place.Seed = 9

	noBridge := base
	noBridge.Bridging = false
	rb, err := Compile(mk(), noBridge)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Bridging.Merges != 0 {
		t.Fatal("bridging ablation still merged")
	}

	conf := base
	conf.PrimalGroups = false
	rc, err := Compile(mk(), conf)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := Compile(mk(), base)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Clustering.Stats().Nodes <= rj.Clustering.Stats().Nodes {
		t.Fatalf("conference version should have more nodes: %d vs %d",
			rc.Clustering.Stats().Nodes, rj.Clustering.Stats().Nodes)
	}
}

// TestUnbridgedRoutingResource pins that the pipeline supplies the
// unbridged routing resource itself: Bridging off alone compiles and
// hashes exactly like Bridging off with Margin 2 and TierPitch 4 spelled
// out.
func TestUnbridgedRoutingResource(t *testing.T) {
	implicit := FastOptions()
	implicit.Place.Seed = 3
	implicit.Bridging = false
	explicit := implicit
	explicit.Place.Margin = 2
	explicit.Place.TierPitch = 4
	a, err := Compile(testCircuit(), implicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(testCircuit(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a.Volume != b.Volume || a.Dims != b.Dims {
		t.Errorf("Bridging off alone gives %v (volume %d), with Margin 2 and TierPitch 4 %v (volume %d)",
			a.Dims, a.Volume, b.Dims, b.Volume)
	}
	if keyFor(t, testCircuit(), implicit) != keyFor(t, testCircuit(), explicit) {
		t.Error("Bridging off alone and with the explicit routing resource hash differently")
	}
}

func TestBreakdownCoversStages(t *testing.T) {
	c := qc.New("bd", 2)
	c.Append(qc.T(0), qc.CNOT(0, 1))
	opts := FastOptions()
	res, err := Compile(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Total() <= 0 {
		t.Fatal("no time recorded")
	}
	// other, zx rewrite, bridging, placement, routing.
	if len(res.Breakdown.Stages()) != 5 {
		t.Fatalf("stages: %v", res.Breakdown.Stages())
	}
	if res.Breakdown.Get(metrics.StageZX) < 0 {
		t.Fatal("zx stage missing from breakdown")
	}
	if res.Breakdown.Counter(metrics.CounterZXGatesBefore) == 0 {
		t.Fatal("zx gates-before counter not recorded")
	}
}

func TestPipelineDeterminism(t *testing.T) {
	mk := func() (*Result, error) {
		c := qc.New("det", 2)
		c.Append(qc.T(0), qc.CNOT(0, 1), qc.T(1))
		opts := FastOptions()
		opts.Place.Seed = 21
		return Compile(c, opts)
	}
	r1, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Volume != r2.Volume || r1.Dims != r2.Dims {
		t.Fatalf("non-deterministic: %v vs %v", r1.Dims, r2.Dims)
	}
	if len(r1.Routing.Routes) != len(r2.Routing.Routes) {
		t.Fatal("routing differs between identical runs")
	}
}

func TestCompileICMDirect(t *testing.T) {
	c := qc.New("icm3", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	circuit, err := icm.FromDecomposed(c)
	if err != nil {
		t.Fatal(err)
	}
	opts := FastOptions()
	opts.Place.Seed = 2
	res, err := CompileICM(circuit, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Decomposed != nil {
		t.Fatal("CompileICM should skip decomposition")
	}
	if res.CanonicalVolume != 54 {
		t.Fatalf("canonical: %d", res.CanonicalVolume)
	}
}

func TestCompileBenchmarkUnknown(t *testing.T) {
	if _, err := CompileBenchmark("nope", FastOptions()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCompileRejectsInvalidCircuit(t *testing.T) {
	c := qc.New("bad", 1)
	c.Append(qc.CNOT(0, 7))
	if _, err := Compile(c, FastOptions()); err == nil {
		t.Fatal("invalid circuit accepted")
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
