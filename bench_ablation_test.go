package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// routing margin around placed blocks and friend-net awareness. Each
// reports the resulting space-time volume or wire cells so sweeps expose
// the trade-off.

import (
	"fmt"
	"testing"

	"repro/internal/qc"
	"repro/internal/route"
	"repro/tqec"
)

func ablationCompile(b *testing.B, mutate func(*tqec.Options)) *tqec.Result {
	b.Helper()
	spec, err := qc.BenchmarkByName(benchmarkCircuit)
	if err != nil {
		b.Fatal(err)
	}
	opts := tqec.DefaultOptions()
	opts.Place.Seed = benchSeed
	if mutate != nil {
		mutate(&opts)
	}
	res, err := tqec.Compile(mustGen(b, spec), opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationMargin sweeps the per-block routing margin ("each
// module is slightly expanded to preserve some routing regions").
func BenchmarkAblationMargin(b *testing.B) {
	for _, margin := range []int{1, 2} {
		b.Run(fmt.Sprintf("margin%d", margin), func(b *testing.B) {
			var vol, failed int
			for i := 0; i < b.N; i++ {
				res := ablationCompile(b, func(o *tqec.Options) { o.Place.Margin = margin })
				vol = res.Volume
				failed = len(res.Routing.Failed)
			}
			b.ReportMetric(float64(vol), "volume")
			b.ReportMetric(float64(failed), "unrouted")
		})
	}
}

// BenchmarkAblationFriendNets routes one placement with and without
// friend-net awareness (the paper's claim that bridging and friend nets
// compound).
func BenchmarkAblationFriendNets(b *testing.B) {
	res := ablationCompile(b, nil)
	for _, friendly := range []bool{true, false} {
		name := "on"
		if !friendly {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var cells, failed int
			for i := 0; i < b.N; i++ {
				o := route.DefaultOptions()
				o.FriendNets = friendly
				r, err := route.Run(res.Placement, o)
				if err != nil {
					b.Fatal(err)
				}
				cells = r.WireCells()
				failed = len(r.Failed)
			}
			b.ReportMetric(float64(cells), "wire-cells")
			b.ReportMetric(float64(failed), "unrouted")
		})
	}
}
