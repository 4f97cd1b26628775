package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/faults"
	"repro/internal/icm"
	"repro/internal/modular"
	"repro/internal/place"
	"repro/internal/qc"
	"repro/internal/route"
	"repro/internal/zx"
)

// kernelBenchmark is the benchmark circuit the isolated kernel
// measurements run on: the smallest paper benchmark, so a kernel sweep
// stays in seconds while still exercising negotiation and tier packing.
const kernelBenchmark = "4gt10-v1_81"

// kernelPlaceIterations bounds the SA move budget of the placement
// kernel so testing.Benchmark's calibration loop converges quickly.
const kernelPlaceIterations = 2000

// kernelPlaceOptions configures the placement kernel: the paper's
// parameters with a bounded move budget and one SA chain, so the kernel
// measures the same work on every CPU count, as compilePipeline does.
func kernelPlaceOptions(seed int64) place.Options {
	po := place.DefaultOptions()
	po.Seed = seed
	po.Iterations = kernelPlaceIterations
	po.Chains = 1
	return po
}

// runKernels measures the placement and routing kernels in isolation
// with testing.Benchmark. The pipeline prefix (decompose through
// clustering) is built once and shared; each kernel re-runs only its own
// stage.
func runKernels(ctx context.Context, opts Options) ([]Kernel, error) {
	if err := faults.Canceled(ctx); err != nil {
		return nil, err
	}
	spec, err := qc.BenchmarkByName(kernelBenchmark)
	if err != nil {
		return nil, err
	}
	c, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	d, err := decompose.Decompose(c)
	if err != nil {
		return nil, err
	}

	var zxErr error
	zxRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := zx.Optimize(d.Circuit); err != nil {
				zxErr = err
				b.FailNow()
			}
		}
	})
	if zxErr != nil {
		return nil, fmt.Errorf("zx kernel: %w", zxErr)
	}

	ic, err := icm.FromDecomposed(d.Circuit)
	if err != nil {
		return nil, err
	}
	can, err := canonical.Build(ic)
	if err != nil {
		return nil, err
	}
	nl, err := modular.Build(can)
	if err != nil {
		return nil, err
	}
	br, err := bridge.RunContext(ctx, nl, true)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.Build(nl, cluster.DefaultOptions())
	if err != nil {
		return nil, err
	}

	po := kernelPlaceOptions(opts.Seed)
	var placeErr error
	placeRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := place.RunContext(ctx, cl, br.Nets, po); err != nil {
				placeErr = err
				b.FailNow()
			}
		}
	})
	if placeErr != nil {
		return nil, fmt.Errorf("place kernel: %w", placeErr)
	}

	pl, err := place.RunContext(ctx, cl, br.Nets, po)
	if err != nil {
		return nil, err
	}
	ro := route.DefaultOptions()
	var routeErr error
	routeRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := route.RunContext(ctx, pl, ro); err != nil {
				routeErr = err
				b.FailNow()
			}
		}
	})
	if routeErr != nil {
		return nil, fmt.Errorf("route kernel: %w", routeErr)
	}

	return []Kernel{
		{
			Name:        "zx/rewrite-extract",
			NSPerOp:     zxRes.NsPerOp(),
			AllocsPerOp: zxRes.AllocsPerOp(),
			BytesPerOp:  zxRes.AllocedBytesPerOp(),
		},
		{
			Name:        "place/sa-anneal",
			NSPerOp:     placeRes.NsPerOp(),
			AllocsPerOp: placeRes.AllocsPerOp(),
			BytesPerOp:  placeRes.AllocedBytesPerOp(),
		},
		{
			Name:        "route/negotiated-astar",
			NSPerOp:     routeRes.NsPerOp(),
			AllocsPerOp: routeRes.AllocsPerOp(),
			BytesPerOp:  routeRes.AllocedBytesPerOp(),
		},
	}, nil
}
