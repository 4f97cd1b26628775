// Package bench produces and judges the repository's reproducible
// performance artifacts (the committed BENCH_*.json trajectory): it runs
// the paper circuit suite through the full compression pipeline N times,
// records per-stage wall time, allocation deltas and compression
// metrics, measures the placement and routing kernels with
// testing.Benchmark, and compares two artifacts with a relative
// regression threshold. The JSON schema is stable and versioned
// (SchemaVersion); readers reject files from other schema versions
// instead of misinterpreting them.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/qc"
	"repro/tqec"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump it on any
// incompatible change; Validate rejects mismatched files.
const SchemaVersion = 1

// File is the root of a BENCH_*.json artifact.
type File struct {
	// Schema is the SchemaVersion the file was written with.
	Schema int `json:"schema"`
	// Name labels the artifact (e.g. "seed").
	Name string `json:"name"`
	// Seed drove every randomized pipeline stage.
	Seed int64 `json:"seed"`
	// Iterations is the number of pipeline runs behind each statistic.
	Iterations int `json:"iterations"`
	// CreatedAt is the RFC 3339 creation time (informational only;
	// Compare ignores it).
	CreatedAt string `json:"created_at"`
	// Go, GOOS, GOARCH, NumCPU and GOMAXPROCS describe the machine the
	// numbers were taken on; cross-machine comparisons are meaningless.
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Circuits holds one entry per benchmark circuit, in suite order.
	Circuits []Circuit `json:"circuits"`
	// Kernels holds the isolated kernel measurements, in fixed order.
	Kernels []Kernel `json:"kernels,omitempty"`
	// Partitioned, when present, records the partitioned-compile stage:
	// a generated clustered circuit compiled whole and split under the
	// same options (see Options.PartitionCap).
	Partitioned *Partitioned `json:"partitioned,omitempty"`
}

// Stat summarizes one wall-time measurement over the iterations. Min is
// the comparison basis: it is the least noisy estimate of the true cost.
type Stat struct {
	MinNS  int64 `json:"min_ns"`
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// newStat folds per-iteration durations into a Stat.
func newStat(ds []time.Duration) Stat {
	if len(ds) == 0 {
		return Stat{}
	}
	var s Stat
	var sum int64
	for i, d := range ds {
		ns := d.Nanoseconds()
		sum += ns
		if i == 0 || ns < s.MinNS {
			s.MinNS = ns
		}
		if ns > s.MaxNS {
			s.MaxNS = ns
		}
	}
	s.MeanNS = sum / int64(len(ds))
	return s
}

// StageTime is one pipeline stage's wall-time statistic.
type StageTime struct {
	Name string `json:"name"`
	Time Stat   `json:"time"`
}

// Circuit carries every measurement for one benchmark circuit.
type Circuit struct {
	Name string `json:"name"`
	// Total is the end-to-end compile wall time; Stages breaks it down
	// in pipeline order (metrics.Breakdown stage names).
	Total  Stat        `json:"total"`
	Stages []StageTime `json:"stages"`
	// AllocBytes and AllocObjects are the per-run runtime.MemStats
	// deltas (TotalAlloc / Mallocs), minimum over the iterations.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// Volume, CompressionRatio and Dims record the compression result so
	// a perf win that regresses quality is visible in the same artifact.
	Volume           int     `json:"volume"`
	CompressionRatio float64 `json:"compression_ratio"`
	Dims             string  `json:"dims"`
}

// Kernel is one isolated testing.Benchmark measurement.
type Kernel struct {
	Name        string `json:"name"`
	NSPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// Options configures a benchmark run.
type Options struct {
	// Name labels the artifact (File.Name).
	Name string
	// Suite lists the benchmark circuit names to run.
	Suite []string
	// Iterations is how many times each circuit compiles (min/mean/max
	// are taken across them). Values below 1 mean 1.
	Iterations int
	// Seed drives all randomized stages.
	Seed int64
	// Kernels additionally runs the isolated placement/routing kernel
	// benchmarks (slower: testing.Benchmark calibrates each for ~1s).
	Kernels bool
	// PartitionCap, when positive, additionally runs the
	// partitioned-compile stage: a generated clustered circuit of four
	// CNOT rings of PartitionCap qubits each is compiled whole and
	// through the partitioned pipeline with this per-part cap, and both
	// wall times land in File.Partitioned.
	PartitionCap int
	// Compile runs one full pipeline compilation and returns its result;
	// it exists so the harness can be stubbed in tests. Nil uses the real
	// tqec pipeline.
	Compile func(ctx context.Context, name string, seed int64) (*tqec.Result, error)
}

// Run executes the suite and returns the artifact.
func Run(opts Options) (*File, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; RunContext is the threaded variant
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cooperative cancellation between compilations.
func RunContext(ctx context.Context, opts Options) (*File, error) {
	if opts.Iterations < 1 {
		opts.Iterations = 1
	}
	compile := opts.Compile
	if compile == nil {
		compile = compilePipeline
	}
	f := &File{
		Schema:     SchemaVersion,
		Name:       opts.Name,
		Seed:       opts.Seed,
		Iterations: opts.Iterations,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, name := range opts.Suite {
		c, err := runCircuit(ctx, name, opts, compile)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		f.Circuits = append(f.Circuits, c)
	}
	if opts.Kernels {
		ks, err := runKernels(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: kernels: %w", err)
		}
		f.Kernels = ks
	}
	if opts.PartitionCap > 0 {
		p, err := runPartitioned(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: partitioned: %w", err)
		}
		f.Partitioned = p
	}
	return f, nil
}

// compilePipeline is the production Compile hook: one full tqec
// compilation of the named paper benchmark. It anneals one SA chain, as
// the committed artifact was measured, so the recorded volumes do not
// depend on the CPU count.
func compilePipeline(ctx context.Context, name string, seed int64) (*tqec.Result, error) {
	spec, err := qc.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	c, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	o := tqec.DefaultOptions()
	o.Place.Seed = seed
	o.Place.Chains = 1
	return tqec.CompileContext(ctx, c, o)
}

// runCircuit compiles one benchmark Iterations times and folds the
// measurements.
func runCircuit(ctx context.Context, name string, opts Options, compile func(context.Context, string, int64) (*tqec.Result, error)) (Circuit, error) {
	c := Circuit{Name: name}
	totals := make([]time.Duration, 0, opts.Iterations)
	stageTimes := map[string][]time.Duration{}
	var stageOrder []string
	for it := 0; it < opts.Iterations; it++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := compile(ctx, name, opts.Seed)
		elapsed := time.Since(start)
		if err != nil {
			return c, err
		}
		runtime.ReadMemStats(&after)
		totals = append(totals, elapsed)
		allocB := after.TotalAlloc - before.TotalAlloc
		allocN := after.Mallocs - before.Mallocs
		if it == 0 || allocB < c.AllocBytes {
			c.AllocBytes = allocB
		}
		if it == 0 || allocN < c.AllocObjects {
			c.AllocObjects = allocN
		}
		if res.Breakdown != nil {
			for _, stage := range res.Breakdown.Stages() {
				if _, seen := stageTimes[stage]; !seen {
					stageOrder = append(stageOrder, stage)
				}
				stageTimes[stage] = append(stageTimes[stage], res.Breakdown.Get(stage))
			}
		}
		if res.Routing != nil {
			// Router-internal sub-stage attribution (route.RoutingStats,
			// measured by the clock the pipeline injects). The rows nest
			// under the "routing" stage and never exceed it.
			for _, sub := range []struct {
				name string
				d    time.Duration
			}{
				{"routing/search", res.Routing.Stats.Search},
				{"routing/commit", res.Routing.Stats.Commit},
				{"routing/ripup", res.Routing.Stats.RipUp},
			} {
				if _, seen := stageTimes[sub.name]; !seen {
					stageOrder = append(stageOrder, sub.name)
				}
				stageTimes[sub.name] = append(stageTimes[sub.name], sub.d)
			}
		}
		// The compression metrics are deterministic for a fixed seed;
		// the last iteration's values stand for all of them.
		c.Volume = res.Volume
		c.CompressionRatio = res.CompressionRatio()
		c.Dims = res.Dims.String()
	}
	c.Total = newStat(totals)
	for _, stage := range stageOrder {
		st := newStat(stageTimes[stage])
		if st.MinNS <= 0 {
			// A sub-stage that never ran (e.g. no rip-up rounds) would fail
			// Validate's positive-stat invariant; drop the row instead.
			continue
		}
		c.Stages = append(c.Stages, StageTime{Name: stage, Time: st})
	}
	return c, nil
}

// WriteFile marshals the artifact to path with stable indentation.
func WriteFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// ReadFile loads and validates an artifact.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if err := Validate(&f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// Validate checks the invariants every well-formed artifact satisfies:
// the schema version matches, every circuit is named and carries
// consistent statistics, and stage breakdowns never exceed their total.
func Validate(f *File) error {
	if f.Schema != SchemaVersion {
		return fmt.Errorf("schema %d, want %d", f.Schema, SchemaVersion)
	}
	if f.Iterations < 1 {
		return fmt.Errorf("iterations %d < 1", f.Iterations)
	}
	if len(f.Circuits) == 0 {
		return fmt.Errorf("no circuits")
	}
	seen := map[string]bool{}
	for _, c := range f.Circuits {
		if c.Name == "" {
			return fmt.Errorf("unnamed circuit entry")
		}
		if seen[c.Name] {
			return fmt.Errorf("duplicate circuit %q", c.Name)
		}
		seen[c.Name] = true
		if err := validStat(c.Total); err != nil {
			return fmt.Errorf("circuit %q total: %w", c.Name, err)
		}
		for _, s := range c.Stages {
			if s.Name == "" {
				return fmt.Errorf("circuit %q: unnamed stage", c.Name)
			}
			if err := validStat(s.Time); err != nil {
				return fmt.Errorf("circuit %q stage %q: %w", c.Name, s.Name, err)
			}
		}
		if c.Volume <= 0 {
			return fmt.Errorf("circuit %q: volume %d", c.Name, c.Volume)
		}
	}
	for _, k := range f.Kernels {
		if k.Name == "" {
			return fmt.Errorf("unnamed kernel entry")
		}
		if k.NSPerOp <= 0 {
			return fmt.Errorf("kernel %q: ns/op %d", k.Name, k.NSPerOp)
		}
	}
	if p := f.Partitioned; p != nil {
		if p.Circuit == "" || p.Qubits <= 0 || p.Cap <= 0 || p.Parts <= 0 {
			return fmt.Errorf("partitioned section: circuit %q, %d qubits, cap %d, %d parts", p.Circuit, p.Qubits, p.Cap, p.Parts)
		}
		if err := validStat(p.Whole); err != nil {
			return fmt.Errorf("partitioned whole: %w", err)
		}
		if err := validStat(p.Split); err != nil {
			return fmt.Errorf("partitioned split: %w", err)
		}
		if p.WholeVolume <= 0 || p.SplitVolume <= 0 {
			return fmt.Errorf("partitioned volumes %d whole, %d split", p.WholeVolume, p.SplitVolume)
		}
	}
	return nil
}

func validStat(s Stat) error {
	if s.MinNS <= 0 || s.MeanNS < s.MinNS || s.MaxNS < s.MeanNS {
		return fmt.Errorf("inconsistent stat min=%d mean=%d max=%d", s.MinNS, s.MeanNS, s.MaxNS)
	}
	return nil
}

// Delta is one compared measurement.
type Delta struct {
	// Metric names the measurement ("circuit/total", "circuit/stage",
	// "circuit/volume", or "kernel/ns_per_op" style paths).
	Metric string
	// Old and New are the compared values, in the unit Unit names.
	Old, New int64
	// Ratio is New/Old.
	Ratio float64
	// Regression marks deltas beyond the comparison threshold.
	Regression bool
}

// Unit names the unit of Old and New: "cells" for the volume metrics,
// "ns" for every time.
func (d Delta) Unit() string {
	if strings.HasSuffix(d.Metric, "volume") {
		return "cells"
	}
	return "ns"
}

// Report is the outcome of comparing two artifacts.
type Report struct {
	// Threshold is the relative slowdown above which a time delta is a
	// regression (0.10 = 10%). A volume regresses on any growth.
	Threshold float64
	// Deltas lists every compared measurement, in artifact order.
	Deltas []Delta
	// Missing lists metrics present in the old artifact but absent from
	// the new one (coverage loss, reported but not a regression).
	Missing []string
}

// Regressions returns the deltas that exceeded the threshold.
func (r *Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// DefaultThreshold is the relative slowdown -compare flags by default.
const DefaultThreshold = 0.10

// Compare judges new against old: every circuit total, per-stage time
// and kernel cost present in both artifacts is compared by its minimum
// (the least noisy estimate), and any slowdown strictly beyond threshold
// is a regression. Every circuit volume and the partitioned whole and
// split volumes are compared too, and any growth is a regression whatever
// the threshold, so a speedup cannot quietly buy a worse layout. Metrics
// only one side has are reported as missing, never judged.
func Compare(old, cur *File, threshold float64) (*Report, error) {
	if err := Validate(old); err != nil {
		return nil, fmt.Errorf("bench: old artifact: %w", err)
	}
	if err := Validate(cur); err != nil {
		return nil, fmt.Errorf("bench: new artifact: %w", err)
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	rep := &Report{Threshold: threshold}
	judge := func(metric string, oldNS, newNS int64) {
		if oldNS <= 0 || newNS <= 0 {
			return
		}
		ratio := float64(newNS) / float64(oldNS)
		rep.Deltas = append(rep.Deltas, Delta{
			Metric:     metric,
			Old:        oldNS,
			New:        newNS,
			Ratio:      ratio,
			Regression: ratio > 1+threshold,
		})
	}
	// Validate guarantees positive volumes on both sides.
	judgeVolume := func(metric string, oldV, newV int) {
		rep.Deltas = append(rep.Deltas, Delta{
			Metric:     metric,
			Old:        int64(oldV),
			New:        int64(newV),
			Ratio:      float64(newV) / float64(oldV),
			Regression: newV > oldV,
		})
	}
	curCircuits := map[string]Circuit{}
	for _, c := range cur.Circuits {
		curCircuits[c.Name] = c
	}
	for _, oc := range old.Circuits {
		nc, ok := curCircuits[oc.Name]
		if !ok {
			rep.Missing = append(rep.Missing, "circuit "+oc.Name)
			continue
		}
		judge(oc.Name+"/total", oc.Total.MinNS, nc.Total.MinNS)
		judgeVolume(oc.Name+"/volume", oc.Volume, nc.Volume)
		newStages := map[string]Stat{}
		for _, s := range nc.Stages {
			newStages[s.Name] = s.Time
		}
		for _, s := range oc.Stages {
			ns, ok := newStages[s.Name]
			if !ok {
				rep.Missing = append(rep.Missing, "circuit "+oc.Name+" stage "+s.Name)
				continue
			}
			judge(oc.Name+"/"+s.Name, s.Time.MinNS, ns.MinNS)
		}
	}
	judgeKernels(rep, old, cur, judge)
	switch {
	case old.Partitioned != nil && cur.Partitioned != nil:
		judge("partitioned/whole", old.Partitioned.Whole.MinNS, cur.Partitioned.Whole.MinNS)
		judge("partitioned/split", old.Partitioned.Split.MinNS, cur.Partitioned.Split.MinNS)
		judgeVolume("partitioned/whole_volume", old.Partitioned.WholeVolume, cur.Partitioned.WholeVolume)
		judgeVolume("partitioned/split_volume", old.Partitioned.SplitVolume, cur.Partitioned.SplitVolume)
	case old.Partitioned != nil:
		rep.Missing = append(rep.Missing, "partitioned section")
	}
	sort.Strings(rep.Missing)
	return rep, nil
}

// judgeKernels compares the kernel measurements shared by both artifacts
// and records old-only kernels as missing.
func judgeKernels(rep *Report, old, cur *File, judge func(metric string, oldNS, newNS int64)) {
	curKernels := map[string]Kernel{}
	for _, k := range cur.Kernels {
		curKernels[k.Name] = k
	}
	for _, ok_ := range old.Kernels {
		nk, ok := curKernels[ok_.Name]
		if !ok {
			rep.Missing = append(rep.Missing, "kernel "+ok_.Name)
			continue
		}
		judge("kernel/"+ok_.Name, ok_.NSPerOp, nk.NSPerOp)
	}
}

// CompareKernels judges only the isolated kernel measurements of new
// against old, ignoring circuit totals and stage timings entirely. The
// kernels are testing.Benchmark numbers — calibrated, allocation-stable
// and far less runner-sensitive than wall-clock stage timings — so they
// can carry a blocking CI floor while the stage comparison stays
// advisory. An old artifact with no kernel measurements is an error: the
// gate must never pass vacuously.
func CompareKernels(old, cur *File, threshold float64) (*Report, error) {
	if err := Validate(old); err != nil {
		return nil, fmt.Errorf("bench: old artifact: %w", err)
	}
	if err := Validate(cur); err != nil {
		return nil, fmt.Errorf("bench: new artifact: %w", err)
	}
	if len(old.Kernels) == 0 {
		return nil, fmt.Errorf("bench: old artifact %q has no kernel measurements to gate on", old.Name)
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	rep := &Report{Threshold: threshold}
	judgeKernels(rep, old, cur, func(metric string, oldNS, newNS int64) {
		if oldNS <= 0 || newNS <= 0 {
			return
		}
		ratio := float64(newNS) / float64(oldNS)
		rep.Deltas = append(rep.Deltas, Delta{
			Metric:     metric,
			Old:        oldNS,
			New:        newNS,
			Ratio:      ratio,
			Regression: ratio > 1+threshold,
		})
	})
	sort.Strings(rep.Missing)
	return rep, nil
}
