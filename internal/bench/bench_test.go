package bench

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/tqec"
)

// stubCompile returns a Compile hook that fabricates deterministic
// results without running the pipeline.
func stubCompile(totalMS int64) func(context.Context, string, int64) (*tqec.Result, error) {
	return func(_ context.Context, name string, _ int64) (*tqec.Result, error) {
		res := &tqec.Result{Breakdown: metrics.NewBreakdown()}
		res.Breakdown.Add(metrics.StagePlacement, time.Duration(totalMS)*time.Millisecond/2)
		res.Breakdown.Add(metrics.StageRouting, time.Duration(totalMS)*time.Millisecond/2)
		res.Volume = 1000 + len(name)
		res.CanonicalVolume = 4000
		res.Dims = metrics.Dims{W: 10, H: 10, D: 10 + len(name)}
		return res, nil
	}
}

func stubFile(t *testing.T, totalMS int64) *File {
	t.Helper()
	f, err := Run(Options{
		Name:       "test",
		Suite:      []string{"a", "b"},
		Iterations: 2,
		Seed:       1,
		Compile:    stubCompile(totalMS),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunProducesValidArtifact(t *testing.T) {
	f := stubFile(t, 1)
	if err := Validate(f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != SchemaVersion || f.Iterations != 2 || len(f.Circuits) != 2 {
		t.Fatalf("unexpected artifact shape: %+v", f)
	}
	c := f.Circuits[0]
	if c.Total.MinNS <= 0 || c.Total.MaxNS < c.Total.MeanNS || c.Total.MeanNS < c.Total.MinNS {
		t.Fatalf("inconsistent total stat: %+v", c.Total)
	}
	if len(c.Stages) != 2 {
		t.Fatalf("want 2 stages, got %+v", c.Stages)
	}
	if c.Volume == 0 || c.CompressionRatio == 0 || c.Dims == "" {
		t.Fatalf("compression metrics missing: %+v", c)
	}
}

// TestFileRoundTrip pins that WriteFile output reads back identically
// enough to validate (the bench-smoke CI gate in miniature).
func TestFileRoundTrip(t *testing.T) {
	f := stubFile(t, 1)
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != f.Name || back.Seed != f.Seed || len(back.Circuits) != len(f.Circuits) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, f)
	}
	if back.Circuits[0].Total != f.Circuits[0].Total {
		t.Fatalf("round trip changed stats: %+v vs %+v", back.Circuits[0].Total, f.Circuits[0].Total)
	}
}

// TestValidateRejectsMalformed covers the schema guard rails.
func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]func(*File){
		"wrong schema":     func(f *File) { f.Schema = SchemaVersion + 1 },
		"no circuits":      func(f *File) { f.Circuits = nil },
		"unnamed circuit":  func(f *File) { f.Circuits[0].Name = "" },
		"dup circuit":      func(f *File) { f.Circuits[1].Name = f.Circuits[0].Name },
		"zero total":       func(f *File) { f.Circuits[0].Total = Stat{} },
		"inverted stat":    func(f *File) { f.Circuits[0].Total = Stat{MinNS: 10, MeanNS: 5, MaxNS: 20} },
		"zero iterations":  func(f *File) { f.Iterations = 0 },
		"missing volume":   func(f *File) { f.Circuits[0].Volume = 0 },
		"unnamed stage":    func(f *File) { f.Circuits[0].Stages[0].Name = "" },
		"bad kernel ns/op": func(f *File) { f.Kernels = []Kernel{{Name: "k"}} },
	}
	for name, corrupt := range cases {
		f := stubFile(t, 1)
		corrupt(f)
		if err := Validate(f); err == nil {
			t.Errorf("%s: Validate accepted a malformed artifact", name)
		}
	}
}

// TestCompareFlagsInjectedSlowdown pins the acceptance criterion: a >10%
// slowdown injected into the new artifact must be reported as a
// regression, while an identical artifact must not.
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	old := stubFile(t, 2)
	same, err := Compare(old, old, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if regs := same.Regressions(); len(regs) != 0 {
		t.Fatalf("self-comparison flagged regressions: %+v", regs)
	}

	slow := copyFile(old)
	for i := range slow.Circuits {
		c := &slow.Circuits[i]
		c.Total.MinNS = c.Total.MinNS * 125 / 100
		c.Total.MeanNS = c.Total.MinNS
		c.Total.MaxNS = c.Total.MinNS
	}
	rep, err := Compare(old, slow, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != len(old.Circuits) {
		t.Fatalf("want %d total-time regressions, got %+v", len(old.Circuits), regs)
	}
	for _, d := range regs {
		if !strings.HasSuffix(d.Metric, "/total") {
			t.Fatalf("unexpected regression metric %q", d.Metric)
		}
		if d.Ratio < 1.2 {
			t.Fatalf("ratio %v implausible for a 25%% slowdown", d.Ratio)
		}
	}
}

// copyFile deep-copies an artifact so tests can perturb one side of a
// comparison without aliasing.
func copyFile(f *File) *File {
	out := *f
	out.Circuits = append([]Circuit(nil), f.Circuits...)
	for i := range out.Circuits {
		out.Circuits[i].Stages = append([]StageTime(nil), f.Circuits[i].Stages...)
	}
	out.Kernels = append([]Kernel(nil), f.Kernels...)
	if f.Partitioned != nil {
		p := *f.Partitioned
		out.Partitioned = &p
	}
	return &out
}

// TestCompareToleratesNoise pins that a sub-threshold delta passes.
func TestCompareToleratesNoise(t *testing.T) {
	old := stubFile(t, 2)
	noisy := copyFile(old)
	for i := range noisy.Circuits {
		c := &noisy.Circuits[i]
		c.Total.MinNS = old.Circuits[i].Total.MinNS * 105 / 100
		c.Total.MeanNS = c.Total.MinNS
		c.Total.MaxNS = c.Total.MinNS
	}
	rep, err := Compare(old, noisy, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("5%% noise flagged as regression: %+v", regs)
	}
}

// TestCompareKernelsJudgesOnlyKernels pins the blocking-gate semantics:
// kernel slowdowns beyond the floor fail, stage and total slowdowns are
// invisible to the kernels-only comparison, and an old artifact without
// kernels refuses to gate at all.
func TestCompareKernelsJudgesOnlyKernels(t *testing.T) {
	old := stubFile(t, 2)
	old.Kernels = []Kernel{
		{Name: "zx/rewrite-extract", NSPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 100},
		{Name: "place/sa-anneal", NSPerOp: 2000, AllocsPerOp: 10, BytesPerOp: 100},
	}

	// A huge circuit-time regression plus a tolerable kernel delta: the
	// kernels-only gate must stay green.
	cur := copyFile(old)
	for i := range cur.Circuits {
		c := &cur.Circuits[i]
		c.Total.MinNS *= 10
		c.Total.MeanNS = c.Total.MinNS
		c.Total.MaxNS = c.Total.MinNS
	}
	cur.Kernels[0].NSPerOp = 1400 // 1.4x, inside the 1.5x floor
	rep, err := CompareKernels(old, cur, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("kernels-only gate flagged non-kernel metrics: %+v", regs)
	}
	if len(rep.Deltas) != len(old.Kernels) {
		t.Fatalf("want %d kernel deltas, got %+v", len(old.Kernels), rep.Deltas)
	}
	for _, d := range rep.Deltas {
		if !strings.HasPrefix(d.Metric, "kernel/") {
			t.Fatalf("non-kernel metric %q judged", d.Metric)
		}
	}

	// A kernel past the floor must fail.
	slow := copyFile(old)
	slow.Kernels[1].NSPerOp = old.Kernels[1].NSPerOp * 2
	rep, err = CompareKernels(old, slow, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Metric != "kernel/place/sa-anneal" {
		t.Fatalf("2x kernel slowdown not flagged: %+v", regs)
	}

	// A dropped kernel is surfaced as missing coverage.
	short := copyFile(old)
	short.Kernels = short.Kernels[:1]
	rep, err = CompareKernels(old, short, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 1 || !strings.Contains(rep.Missing[0], "place/sa-anneal") {
		t.Fatalf("dropped kernel not reported: %+v", rep.Missing)
	}

	// No kernels in the baseline: the gate must refuse, not pass vacuously.
	bare := copyFile(old)
	bare.Kernels = nil
	if _, err := CompareKernels(bare, cur, 0.5); err == nil {
		t.Fatal("kernel-less baseline accepted by the kernel gate")
	}
}

// stubPartitioned fabricates a plausible partitioned-compile section.
func stubPartitioned() *Partitioned {
	return &Partitioned{
		Circuit: "clustered24", Qubits: 24, Gates: 91, Cap: 6, Parts: 4, Seams: 3,
		Whole:   Stat{MinNS: 4000, MeanNS: 4500, MaxNS: 5000},
		Split:   Stat{MinNS: 2000, MeanNS: 2100, MaxNS: 2200},
		Speedup: 2, WholeVolume: 100, SplitVolume: 120,
	}
}

// TestValidateRejectsMalformedPartitioned covers the guard rails of the
// optional partitioned section.
func TestValidateRejectsMalformedPartitioned(t *testing.T) {
	f := stubFile(t, 1)
	f.Partitioned = stubPartitioned()
	if err := Validate(f); err != nil {
		t.Fatalf("well-formed partitioned section rejected: %v", err)
	}
	cases := map[string]func(*Partitioned){
		"unnamed circuit": func(p *Partitioned) { p.Circuit = "" },
		"zero cap":        func(p *Partitioned) { p.Cap = 0 },
		"zero parts":      func(p *Partitioned) { p.Parts = 0 },
		"zero whole stat": func(p *Partitioned) { p.Whole = Stat{} },
		"inverted split":  func(p *Partitioned) { p.Split = Stat{MinNS: 10, MeanNS: 5, MaxNS: 20} },
		"zero volume":     func(p *Partitioned) { p.SplitVolume = 0 },
	}
	for name, corrupt := range cases {
		f := stubFile(t, 1)
		f.Partitioned = stubPartitioned()
		corrupt(f.Partitioned)
		if err := Validate(f); err == nil {
			t.Errorf("%s: Validate accepted a malformed partitioned section", name)
		}
	}
}

// TestComparePartitionedSection pins that the partitioned wall times are
// judged like any other metric and a dropped section surfaces as missing
// coverage.
func TestComparePartitionedSection(t *testing.T) {
	old := stubFile(t, 1)
	old.Partitioned = stubPartitioned()
	slow := copyFile(old)
	slow.Partitioned.Split.MinNS *= 2
	slow.Partitioned.Split.MeanNS *= 2
	slow.Partitioned.Split.MaxNS *= 2
	rep, err := Compare(old, slow, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Metric != "partitioned/split" {
		t.Fatalf("2x split slowdown not flagged: %+v", regs)
	}

	bare := copyFile(old)
	bare.Partitioned = nil
	rep, err = Compare(old, bare, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range rep.Missing {
		if strings.Contains(m, "partitioned") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped partitioned section not reported: %+v", rep.Missing)
	}
}

// TestCompareFlagsVolumeGrowth pins that Compare judges layout quality,
// not only time: a circuit volume or a partitioned whole or split volume
// above the baseline is a regression even under a threshold no timing
// noise reaches, while equal volumes pass.
func TestCompareFlagsVolumeGrowth(t *testing.T) {
	old := stubFile(t, 1)
	old.Partitioned = stubPartitioned()
	for metric, grow := range map[string]func(*File){
		"b/volume":                 func(f *File) { f.Circuits[1].Volume++ },
		"partitioned/whole_volume": func(f *File) { f.Partitioned.WholeVolume++ },
		"partitioned/split_volume": func(f *File) { f.Partitioned.SplitVolume++ },
	} {
		cur := copyFile(old)
		grow(cur)
		rep, err := Compare(old, cur, 10)
		if err != nil {
			t.Fatal(err)
		}
		regs := rep.Regressions()
		if len(regs) != 1 || regs[0].Metric != metric || regs[0].Unit() != "cells" {
			t.Errorf("%s grown by one cell: regressions %+v", metric, regs)
		}
	}
	rep, err := Compare(old, copyFile(old), 10)
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("identical artifacts regressed: %+v", regs)
	}
}

// TestRunPartitionedMeasuresRealCompiles runs the partitioned stage with
// the smallest workload through the real pipeline and checks the section
// is complete and internally consistent.
func TestRunPartitionedMeasuresRealCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real pipeline compiles")
	}
	p, err := runPartitioned(context.Background(), Options{Iterations: 1, Seed: 1, PartitionCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Qubits != 16 || p.Cap != 4 {
		t.Fatalf("workload shape: %+v", p)
	}
	if p.Parts < 2 || p.Seams < 1 {
		t.Fatalf("workload did not split: %+v", p)
	}
	if p.Whole.MinNS <= 0 || p.Split.MinNS <= 0 || p.Speedup <= 0 {
		t.Fatalf("missing measurements: %+v", p)
	}
	if p.WholeVolume <= 0 || p.SplitVolume <= 0 {
		t.Fatalf("missing volumes: %+v", p)
	}
	f := stubFile(t, 1)
	f.Partitioned = p
	if err := Validate(f); err != nil {
		t.Fatalf("real section fails validation: %v", err)
	}
}

// TestCompilePipelineIgnoresCPUCount pins that -bench-out volumes do not
// depend on the machine and still match the committed artifact:
// compilePipeline fixes the SA chain count, so every circuit of
// BENCH_seed.json compiles to its recorded volume at GOMAXPROCS 1 and 2.
func TestCompilePipelineIgnoresCPUCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real pipeline compiles")
	}
	seed, err := ReadFile(filepath.Join("..", "..", "BENCH_seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, c := range seed.Circuits {
			res, err := compilePipeline(context.Background(), c.Name, seed.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if res.Volume != c.Volume {
				t.Errorf("%s volume %d at GOMAXPROCS %d, BENCH_seed.json records %d", c.Name, res.Volume, procs, c.Volume)
			}
		}
	}
}

// TestKernelPlaceOptionsPinOneChain pins that the place/sa-anneal kernel
// anneals one chain on a multi-CPU machine, as the committed kernel row
// was measured at GOMAXPROCS 1: the default Chains 0 would resolve to
// min(GOMAXPROCS, 4) chains.
func TestKernelPlaceOptionsPinOneChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if got := kernelPlaceOptions(1).EffectiveChains(); got != 1 {
		t.Fatalf("kernel anneals %d chains at GOMAXPROCS 4, want 1", got)
	}
}

// TestCompareReportsMissingMetrics pins that dropped coverage is
// surfaced instead of silently passing.
func TestCompareReportsMissingMetrics(t *testing.T) {
	old := stubFile(t, 1)
	cur := stubFile(t, 1)
	cur.Circuits = cur.Circuits[:1]
	rep, err := Compare(old, cur, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 1 || !strings.Contains(rep.Missing[0], old.Circuits[1].Name) {
		t.Fatalf("missing circuit not reported: %+v", rep.Missing)
	}
}
