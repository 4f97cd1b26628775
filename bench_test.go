// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (Section IV); each Benchmark function corresponds to
// one table/figure and reports the headline quantity as a custom metric.
// Run them with:
//
//	go test -bench=. -benchmem
//
// cmd/tqecbench prints the full paper-style rows; these benches measure
// the regeneration cost and pin the reproduced quantities.
package repro

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/distill"
	"repro/internal/icm"
	"repro/internal/modular"
	"repro/internal/place"
	"repro/internal/qc"
	"repro/internal/route"
	"repro/tqec"
)

const benchSeed = 3

// benchmarkCircuit is the smallest paper benchmark; the full suite runs
// via cmd/tqecbench -full.
const benchmarkCircuit = "4gt10-v1_81"

func compileOnce(b *testing.B, mutate func(*tqec.Options)) *tqec.Result {
	b.Helper()
	opts := tqec.DefaultOptions()
	opts.Place.Seed = benchSeed
	if mutate != nil {
		mutate(&opts)
	}
	res, err := tqec.CompileBenchmark(benchmarkCircuit, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Stats regenerates Table I's statistics pipeline: gate
// decomposition, ICM conversion, modularization, bridging and clustering.
func BenchmarkTable1Stats(b *testing.B) {
	spec, err := qc.BenchmarkByName(benchmarkCircuit)
	if err != nil {
		b.Fatal(err)
	}
	var nodes int
	for i := 0; i < b.N; i++ {
		d, err := decompose.Decompose(mustGen(b, spec))
		if err != nil {
			b.Fatal(err)
		}
		ic, err := icm.FromDecomposed(d.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		cd, err := canonical.Build(ic)
		if err != nil {
			b.Fatal(err)
		}
		nl, err := modular.Build(cd)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bridge.Run(nl, true); err != nil {
			b.Fatal(err)
		}
		cl, err := cluster.Build(nl, cluster.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		nodes = cl.Stats().Nodes
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkTable2Compression regenerates the Table II "Ours" column: the
// full compression flow, reporting the space-time volume.
func BenchmarkTable2Compression(b *testing.B) {
	var vol int
	for i := 0; i < b.N; i++ {
		vol = compileOnce(b, nil).Volume
	}
	b.ReportMetric(float64(vol), "volume")
}

// BenchmarkTable2Baselines regenerates Table II's canonical and [22]
// 1D/2D columns.
func BenchmarkTable2Baselines(b *testing.B) {
	spec, err := qc.BenchmarkByName(benchmarkCircuit)
	if err != nil {
		b.Fatal(err)
	}
	d, err := decompose.Decompose(mustGen(b, spec))
	if err != nil {
		b.Fatal(err)
	}
	ic, err := icm.FromDecomposed(d.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	var v1, v2 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1, err := baseline.Lin1D(ic)
		if err != nil {
			b.Fatal(err)
		}
		l2, err := baseline.Lin2D(ic)
		if err != nil {
			b.Fatal(err)
		}
		v1, v2 = l1.Volume(), l2.Volume()
	}
	b.ReportMetric(float64(v1), "vol-1d")
	b.ReportMetric(float64(v2), "vol-2d")
	b.ReportMetric(float64(baseline.Canonical(ic).Volume()), "vol-canonical")
}

// BenchmarkTable3Conference regenerates Table III's conference-version
// flow (no primal-group super-modules).
func BenchmarkTable3Conference(b *testing.B) {
	var vol, nodes int
	for i := 0; i < b.N; i++ {
		res := compileOnce(b, func(o *tqec.Options) { o.PrimalGroups = false })
		vol = res.Volume
		nodes = res.Clustering.Stats().Nodes
	}
	b.ReportMetric(float64(vol), "volume")
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkTable4Dimensions regenerates Table IV: the dimensions of the
// compressed layout.
func BenchmarkTable4Dimensions(b *testing.B) {
	var w, h, d int
	for i := 0; i < b.N; i++ {
		res := compileOnce(b, nil)
		w, h, d = res.Dims.W, res.Dims.H, res.Dims.D
	}
	b.ReportMetric(float64(w), "W")
	b.ReportMetric(float64(h), "H")
	b.ReportMetric(float64(d), "D")
}

// BenchmarkTable5Bridging regenerates Table V's ablation: the flow without
// iterative bridging.
func BenchmarkTable5Bridging(b *testing.B) {
	var vol int
	for i := 0; i < b.N; i++ {
		vol = compileOnce(b, func(o *tqec.Options) { o.Bridging = false }).Volume
	}
	b.ReportMetric(float64(vol), "volume-wo-bridging")
}

// BenchmarkTable6Breakdown regenerates Table VI: the stage shares of the
// full flow.
func BenchmarkTable6Breakdown(b *testing.B) {
	var placeShare, routeShare, bridgeShare float64
	for i := 0; i < b.N; i++ {
		res := compileOnce(b, nil)
		placeShare = res.Breakdown.Ratio("module placement")
		routeShare = res.Breakdown.Ratio("dual-defect net routing")
		bridgeShare = res.Breakdown.Ratio("iterative bridging")
	}
	b.ReportMetric(placeShare, "%place")
	b.ReportMetric(routeShare, "%route")
	b.ReportMetric(bridgeShare, "%bridge")
}

// BenchmarkFigMotivation regenerates the Fig. 4/5 motivating example.
func BenchmarkFigMotivation(b *testing.B) {
	var canonicalVol, vol int
	for i := 0; i < b.N; i++ {
		c := qc.New("fig4", 3)
		c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
		opts := tqec.DefaultOptions()
		opts.Place.Seed = benchSeed
		res, err := tqec.Compile(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		canonicalVol, vol = res.CanonicalVolume, res.Volume
	}
	b.ReportMetric(float64(canonicalVol), "vol-canonical")
	b.ReportMetric(float64(vol), "vol-compressed")
}

// BenchmarkFigBoxes regenerates the Fig. 6/7 distillation circuits through
// the automated flow (the Fowler-Devitt manual-compression scenario).
func BenchmarkFigBoxes(b *testing.B) {
	var vol int
	for i := 0; i < b.N; i++ {
		opts := tqec.DefaultOptions()
		opts.Place.Seed = benchSeed
		opts.NoBoxes = true
		res, err := tqec.CompileICM(distill.YCircuit(), opts)
		if err != nil {
			b.Fatal(err)
		}
		vol = res.Volume
	}
	b.ReportMetric(float64(vol), "vol-Y-distill")
	b.ReportMetric(float64(distill.YBoxVolume), "vol-Y-manual")
}

// BenchmarkFigFriendNet regenerates the Fig. 19 experiment: the same
// placement routed with and without friend-net awareness.
func BenchmarkFigFriendNet(b *testing.B) {
	res := compileOnce(b, nil)
	var friendCells, plainCells int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		friendly := route.DefaultOptions()
		rf, err := route.Run(res.Placement, friendly)
		if err != nil {
			b.Fatal(err)
		}
		plain := route.DefaultOptions()
		plain.FriendNets = false
		rp, err := route.Run(res.Placement, plain)
		if err != nil {
			b.Fatal(err)
		}
		friendCells, plainCells = rf.WireCells(), rp.WireCells()
	}
	b.ReportMetric(float64(friendCells), "wire-friend")
	b.ReportMetric(float64(plainCells), "wire-plain")
}

// BenchmarkStageBridging isolates the iterative bridging stage (Table VI's
// ~1% share).
func BenchmarkStageBridging(b *testing.B) {
	spec, err := qc.BenchmarkByName(benchmarkCircuit)
	if err != nil {
		b.Fatal(err)
	}
	d, err := decompose.Decompose(mustGen(b, spec))
	if err != nil {
		b.Fatal(err)
	}
	ic, err := icm.FromDecomposed(d.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cd, err := canonical.Build(ic)
		if err != nil {
			b.Fatal(err)
		}
		nl, err := modular.Build(cd)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := bridge.Run(nl, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStagePlacement isolates the SA placement stage.
func BenchmarkStagePlacement(b *testing.B) {
	spec, err := qc.BenchmarkByName(benchmarkCircuit)
	if err != nil {
		b.Fatal(err)
	}
	d, err := decompose.Decompose(mustGen(b, spec))
	if err != nil {
		b.Fatal(err)
	}
	ic, err := icm.FromDecomposed(d.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	cd, err := canonical.Build(ic)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := modular.Build(cd)
	if err != nil {
		b.Fatal(err)
	}
	br, err := bridge.Run(nl, true)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.Build(nl, cluster.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := place.DefaultOptions()
		po.Seed = benchSeed
		if _, err := place.Run(cl, br.Nets, po); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageRouting isolates the routing stage.
func BenchmarkStageRouting(b *testing.B) {
	res := compileOnce(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Run(res.Placement, route.DefaultOptions()); err != nil {
			b.Fatal(err)
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
