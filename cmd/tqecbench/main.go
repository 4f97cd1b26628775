// Command tqecbench regenerates the paper's experimental tables and
// figure-shaped results, and produces/judges the repository's
// reproducible performance artifacts.
//
// Usage:
//
//	tqecbench [-table N | -fig name | -all] [-benchmarks a,b,c] [-full]
//	          [-iters N] [-seed S] [-no-ablations] [-timeout 10m]
//	tqecbench -bench-out BENCH_<name>.json [-bench-iters N] [-bench-kernels]
//	tqecbench -compare old.json new.json [-threshold 0.10] [-summary FILE]
//	tqecbench -compare-kernels-only old.json new.json [-threshold 0.5]
//
// Tables: 1 (benchmark statistics), 2 (space-time volumes vs canonical and
// [22]), 3 (conference-version ablation), 4 (dimensions), 5 (bridging
// ablation), 6 (runtime breakdown). Figures: "motivation" (Fig. 4/5),
// "boxes" (Fig. 6/7), "friendnet" (Fig. 19).
//
// -bench-out runs the benchmark suite -bench-iters times through the full
// pipeline, records per-stage wall time, allocation deltas and compression
// metrics, and writes a schema-versioned JSON artifact (see BENCHMARKS.md).
// -compare judges a new artifact against an old one and exits non-zero
// when any time metric regressed by more than -threshold or any volume
// grew; -summary additionally appends a markdown delta table (routing
// rows first) to the given file, which CI points at $GITHUB_STEP_SUMMARY.
// -compare-kernels-only judges only the isolated testing.Benchmark kernel
// ns/op numbers — the low-noise subset CI gates blockingly (the stage
// wall-clock comparison stays advisory via -compare-warn).
//
// The default benchmark set holds the two smallest circuits; -full runs
// all eight (the paper spends over an hour of workstation time there).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/tqec"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-6)")
	fig := flag.String("fig", "", "regenerate one figure: motivation, boxes, friendnet")
	all := flag.Bool("all", false, "regenerate every table and figure")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark names")
	full := flag.Bool("full", false, "run all eight paper benchmarks")
	iters := flag.Int("iters", 0, "SA move budget (0 = auto: 200 per node)")
	seed := flag.Int64("seed", 1, "random seed")
	noAblations := flag.Bool("no-ablations", false, "skip the no-bridging/conference runs")
	timeout := flag.Duration("timeout", 0, "abort each benchmark compilation after this long (0 = no limit)")
	benchOut := flag.String("bench-out", "", "write a BENCH_*.json performance artifact to this path and exit")
	benchIters := flag.Int("bench-iters", 3, "pipeline runs per circuit for -bench-out")
	benchKernels := flag.Bool("bench-kernels", false, "also measure the isolated place/route kernels for -bench-out")
	benchPartition := flag.Int("bench-partition", 0, "also measure whole vs partitioned compiles of a generated clustered circuit (4 rings of this many qubits) for -bench-out (0 = skip)")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json artifacts (old new); exit non-zero on regression")
	compareWarn := flag.Bool("compare-warn", false, "with -compare, report regressions but exit zero (informational CI step)")
	compareKernelsOnly := flag.Bool("compare-kernels-only", false, "compare only the isolated kernel ns/op measurements (the blocking CI gate)")
	threshold := flag.Float64("threshold", bench.DefaultThreshold, "relative slowdown treated as a regression by -compare")
	summary := flag.String("summary", "", "with -compare, append a markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	flag.Parse()

	if *compare || *compareKernelsOnly {
		if err := runCompare(flag.Args(), *threshold, *compareWarn, *compareKernelsOnly, *summary); err != nil {
			fatal(err)
		}
		return
	}
	if *benchOut != "" {
		if err := runBench(*benchOut, *benchmarks, *full, *benchIters, *seed, *benchKernels, *benchPartition); err != nil {
			fatal(err)
		}
		return
	}

	if *table == 0 && *fig == "" && !*all {
		*all = true
	}

	cfg := harness.DefaultConfig()
	if *full {
		cfg = harness.FullConfig()
	}
	if *benchmarks != "" {
		cfg.Benchmarks = strings.Split(*benchmarks, ",")
	}
	cfg.PlaceIterations = *iters
	cfg.Seed = *seed
	cfg.Timeout = *timeout
	if *noAblations {
		cfg.Ablations = false
	}
	// Tables III and V need the ablation runs.
	if (*table == 3 || *table == 5) && !cfg.Ablations {
		fmt.Fprintln(os.Stderr, "tables 3 and 5 need ablations; ignoring -no-ablations")
		cfg.Ablations = true
	}

	out := os.Stdout
	if *fig != "" || *all {
		if err := figures(*fig, *all, *seed, cfg); err != nil {
			fatal(err)
		}
		if !*all && *table == 0 {
			return
		}
	}

	fmt.Fprintf(out, "Running %d benchmark(s): %s (ablations: %v)\n\n",
		len(cfg.Benchmarks), strings.Join(cfg.Benchmarks, ", "), cfg.Ablations)
	rows, err := harness.Run(cfg)
	if err != nil {
		fatal(err)
	}
	printed := false
	show := func(n int, f func() error) {
		if *all || *table == n {
			if printed {
				fmt.Fprintln(out)
			}
			if err := f(); err != nil {
				fatal(err)
			}
			printed = true
		}
	}
	show(1, func() error { return harness.Table1(out, rows) })
	show(2, func() error { return harness.Table2(out, rows) })
	show(3, func() error { return harness.Table3(out, rows) })
	show(4, func() error { return harness.Table4(out, rows) })
	show(5, func() error { return harness.Table5(out, rows) })
	show(6, func() error { return harness.Table6(out, rows) })
	if *all {
		fmt.Fprintln(out)
		if err := harness.Summary(out, rows); err != nil {
			fatal(err)
		}
	}
}

func figures(which string, all bool, seed int64, cfg harness.Config) error {
	out := os.Stdout
	if all || which == "motivation" {
		if err := harness.FigMotivation(out, seed); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || which == "boxes" {
		if err := harness.FigBoxes(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || which == "friendnet" {
		name := cfg.Benchmarks[0]
		if err := harness.FigFriendNet(out, name, seed); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	switch which {
	case "", "motivation", "boxes", "friendnet":
		return nil
	default:
		return fmt.Errorf("unknown figure %q", which)
	}
}

// runBench produces a BENCH_*.json artifact, reads it back and validates
// it so a malformed write can never land in the trajectory.
func runBench(out, benchmarks string, full bool, iters int, seed int64, kernels bool, partitionCap int) error {
	suite := harness.DefaultConfig().Benchmarks
	if full {
		suite = harness.FullConfig().Benchmarks
	}
	if benchmarks != "" {
		suite = strings.Split(benchmarks, ",")
	}
	name := strings.TrimSuffix(filepath.Base(out), ".json")
	name = strings.TrimPrefix(name, "BENCH_")
	fmt.Fprintf(os.Stderr, "benchmarking %d circuit(s) × %d iteration(s) (kernels: %v, partition cap: %d)...\n",
		len(suite), iters, kernels, partitionCap)
	f, err := bench.Run(bench.Options{
		Name:         name,
		Suite:        suite,
		Iterations:   iters,
		Seed:         seed,
		Kernels:      kernels,
		PartitionCap: partitionCap,
	})
	if err != nil {
		return err
	}
	if err := bench.WriteFile(out, f); err != nil {
		return err
	}
	if _, err := bench.ReadFile(out); err != nil {
		return fmt.Errorf("artifact failed round-trip validation: %w", err)
	}
	fmt.Printf("wrote %s: %d circuit(s), %d kernel(s), schema v%d\n",
		out, len(f.Circuits), len(f.Kernels), f.Schema)
	if p := f.Partitioned; p != nil {
		fmt.Printf("partitioned %s (%d qubits, cap %d): whole %.2fms vs split %.2fms (x%.2f), %d part(s), %d seam(s)\n",
			p.Circuit, p.Qubits, p.Cap, float64(p.Whole.MinNS)/1e6, float64(p.Split.MinNS)/1e6, p.Speedup, p.Parts, p.Seams)
	}
	return nil
}

// runCompare judges new against old and exits non-zero on regression
// unless warnOnly downgrades regressions to a printed warning —
// CI compares freshly measured numbers on shared runners against the
// committed workstation artifact, where absolute timings are advisory.
// kernelsOnly restricts the comparison to the testing.Benchmark kernel
// measurements, which are stable enough on shared runners to gate
// blockingly. A non-empty summaryPath additionally gets a markdown delta
// table appended (the Actions step-summary format).
func runCompare(args []string, threshold float64, warnOnly, kernelsOnly bool, summaryPath string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs exactly two arguments: old.json new.json")
	}
	old, err := bench.ReadFile(args[0])
	if err != nil {
		return err
	}
	cur, err := bench.ReadFile(args[1])
	if err != nil {
		return err
	}
	cmp := bench.Compare
	if kernelsOnly {
		cmp = bench.CompareKernels
	}
	rep, err := cmp(old, cur, threshold)
	if err != nil {
		return err
	}
	if summaryPath != "" {
		if err := writeSummary(summaryPath, args[0], args[1], rep); err != nil {
			return err
		}
	}
	for _, d := range rep.Deltas {
		mark := " "
		if d.Regression {
			mark = "!"
		}
		fmt.Printf("%s %-40s %12d -> %12d %-5s (%+.1f%%)\n",
			mark, d.Metric, d.Old, d.New, d.Unit(), (d.Ratio-1)*100)
	}
	for _, m := range rep.Missing {
		fmt.Printf("? missing in new artifact: %s\n", m)
	}
	if regs := rep.Regressions(); len(regs) > 0 {
		if warnOnly {
			fmt.Printf("warning: %d metric(s) regressed (times by more than %.0f%%, volumes at all; informational, not failing)\n",
				len(regs), rep.Threshold*100)
			return nil
		}
		return fmt.Errorf("%d metric(s) regressed (times by more than %.0f%%, volumes at all)", len(regs), rep.Threshold*100)
	}
	fmt.Printf("no regressions (times within %.0f%%, no volume growth) across %d metric(s)\n", rep.Threshold*100, len(rep.Deltas))
	return nil
}

// writeSummary appends a GitHub-flavored markdown table of the compared
// metrics to path, putting the routing rows (the stage the committed
// artifact shows dominating compile time) first so a routing regression
// is visible at the top of the step summary without expanding logs.
func writeSummary(path, oldName, newName string, rep *bench.Report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "### Bench compare: `%s` vs `%s` (threshold %.0f%%)\n\n",
		filepath.Base(oldName), filepath.Base(newName), rep.Threshold*100)
	b.WriteString("| Metric | Old | New | Delta | |\n|---|---:|---:|---:|---|\n")
	row := func(d bench.Delta) {
		mark := ""
		if d.Regression {
			mark = "⚠️ regression"
		}
		oldV, newV := fmt.Sprintf("%.2fms", float64(d.Old)/1e6), fmt.Sprintf("%.2fms", float64(d.New)/1e6)
		if d.Unit() == "cells" {
			oldV, newV = fmt.Sprint(d.Old), fmt.Sprint(d.New)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %+.1f%% | %s |\n",
			d.Metric, oldV, newV, (d.Ratio-1)*100, mark)
	}
	for _, d := range rep.Deltas {
		if strings.Contains(d.Metric, "routing") {
			row(d)
		}
	}
	for _, d := range rep.Deltas {
		if !strings.Contains(d.Metric, "routing") {
			row(d)
		}
	}
	for _, m := range rep.Missing {
		fmt.Fprintf(&b, "| %s | — | missing | | |\n", m)
	}
	b.WriteString("\n")
	_, err = f.WriteString(b.String())
	return err
}

func fatal(err error) {
	if se, ok := tqec.AsStageError(err); ok {
		switch {
		case errors.Is(err, tqec.ErrCanceled):
			fmt.Fprintf(os.Stderr, "tqecbench: stage %s aborted (timed out?): %v\n", se.Stage, se.Err)
		case errors.Is(err, tqec.ErrPanic):
			fmt.Fprintf(os.Stderr, "tqecbench: stage %s crashed: %v\n%s", se.Stage, se.Err, se.Stack)
		default:
			fmt.Fprintf(os.Stderr, "tqecbench: stage %s failed: %v\n", se.Stage, se.Err)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "tqecbench:", err)
	os.Exit(1)
}
