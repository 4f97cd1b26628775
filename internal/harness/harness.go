// Package harness regenerates the paper's tables and figure-shaped
// results: it runs the full compression flow plus the baselines and
// ablations on the RevLib-scale benchmarks and prints paper-vs-measured
// rows (Tables I-VI, plus the Fig. 4/5 motivating example and the Fig. 19
// friend-net experiment).
package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/decompose"
	"repro/internal/distill"
	"repro/internal/icm"
	"repro/internal/metrics"
	"repro/internal/paper"
	"repro/internal/qc"
	"repro/internal/route"
	"repro/tqec"
)

// Config selects benchmarks and effort.
type Config struct {
	// Benchmarks lists benchmark names to run.
	Benchmarks []string
	// PlaceIterations overrides the SA move budget (0 = auto).
	PlaceIterations int
	// Seed drives all randomized stages.
	Seed int64
	// Ablations enables the no-bridging and conference-version runs
	// (needed by Tables III and V).
	Ablations bool
	// Timeout bounds each compilation (0 = none); expiry aborts the SA,
	// negotiation and bridging loops and surfaces tqec.ErrCanceled.
	Timeout time.Duration
	// Faults optionally injects failures into each compilation (panics,
	// forced stage errors, cancellation, per-net routing failures); used
	// by the fault-tolerance tests.
	Faults *FaultPlan
}

// DefaultConfig runs the two smallest benchmarks (the full suite takes the
// paper's workstation an hour; use Full for everything).
func DefaultConfig() Config {
	return Config{
		Benchmarks: []string{"4gt10-v1_81", "4gt4-v0_73"},
		Seed:       1,
		Ablations:  true,
	}
}

// FullConfig runs all eight benchmarks.
func FullConfig() Config {
	c := DefaultConfig()
	c.Benchmarks = nil
	for _, b := range qc.Benchmarks {
		c.Benchmarks = append(c.Benchmarks, b.Name)
	}
	return c
}

// Row carries every measured artifact for one benchmark.
type Row struct {
	Name string
	Spec qc.BenchmarkSpec

	ICMStats icm.Stats
	BoxVolY  int
	BoxVolA  int

	Canonical baseline.Layout
	Lin1D     baseline.Layout
	Lin2D     baseline.Layout
	Lin1DTime time.Duration
	Lin2DTime time.Duration

	Ours         *tqec.Result
	OursTime     time.Duration
	NoBridge     *tqec.Result
	NoBridgeTime time.Duration
	Conference   *tqec.Result
}

// Run executes the configured benchmarks.
func Run(cfg Config) ([]*Row, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; RunContext is the threaded variant
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: ctx bounds every
// compilation (Config.Timeout still applies per benchmark, nested under
// ctx).
func RunContext(ctx context.Context, cfg Config) ([]*Row, error) {
	var rows []*Row
	for _, name := range cfg.Benchmarks {
		row, err := runOne(ctx, name, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runOne(ctx context.Context, name string, cfg Config) (*Row, error) {
	spec, err := qc.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	row := &Row{Name: name, Spec: spec}

	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}

	// Baselines share one ICM conversion.
	c, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	d, err := decompose.Decompose(c)
	if err != nil {
		return nil, err
	}
	ic, err := icm.FromDecomposed(d.Circuit)
	if err != nil {
		return nil, err
	}
	row.ICMStats = ic.Stats()
	row.BoxVolY = row.ICMStats.NumY * distill.YBoxVolume
	row.BoxVolA = row.ICMStats.NumA * distill.ABoxVolume
	row.Canonical = baseline.Canonical(ic)
	start := time.Now()
	if row.Lin1D, err = baseline.Lin1D(ic); err != nil {
		return nil, err
	}
	row.Lin1DTime = time.Since(start)
	start = time.Now()
	if row.Lin2D, err = baseline.Lin2D(ic); err != nil {
		return nil, err
	}
	row.Lin2DTime = time.Since(start)

	opts := tqec.DefaultOptions()
	opts.Place.Iterations = cfg.PlaceIterations
	opts.Place.Seed = cfg.Seed
	if cfg.Faults != nil {
		ctx = cfg.Faults.Install(ctx, &opts)
	}
	start = time.Now()
	if row.Ours, err = tqec.CompileContext(ctx, c, opts); err != nil {
		return nil, err
	}
	row.OursTime = time.Since(start)

	if cfg.Ablations {
		nb := opts
		nb.Bridging = false
		start = time.Now()
		if row.NoBridge, err = tqec.CompileContext(ctx, c, nb); err != nil {
			return nil, err
		}
		row.NoBridgeTime = time.Since(start)

		conf := opts
		conf.PrimalGroups = false
		if row.Conference, err = tqec.CompileContext(ctx, c, conf); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// boxVol is the benchmark's lower-bound distillation volume.
func (r *Row) boxVol() int { return r.BoxVolY + r.BoxVolA }

// printer is a sticky-error writer: the first failed write latches, later
// calls become no-ops, and the error surfaces once from the table function.
// It keeps the row formatting linear without discarding write errors.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// Table1 prints benchmark statistics (paper Table I) with the published
// values alongside.
func Table1(w io.Writer, rows []*Row) error {
	pr := &printer{w: w}
	pr.printf("Table I — benchmark statistics (measured | paper)\n")
	pr.printf("%-14s %9s %7s %9s %9s %7s %7s %9s %9s %9s %8s %8s\n",
		"benchmark", "#Qubits_o", "#Gates", "#Qubits_d", "#CNOTs", "#|Y>", "#|A>",
		"Vol_|Y>", "Vol_|A>", "#Modules", "#Nets", "#Nodes")
	for _, r := range rows {
		p, _ := paper.ByName(r.Name)
		pr.printf("%-14s %9d %7d %4d|%-4d %4d|%-4d %3d|%-3d %3d|%-3d %4d|%-4d %5d|%-6d %4d|%-5d %4d|%-5d %4d|%-4d\n",
			r.Name, r.Spec.Qubits, r.Spec.Gates(),
			r.ICMStats.Lines, p.QubitsD,
			r.ICMStats.CNOTs, p.CNOTs,
			r.ICMStats.NumY, p.NumY,
			r.ICMStats.NumA, p.NumA,
			r.BoxVolY, p.VolY,
			r.BoxVolA, p.VolA,
			len(r.Ours.Netlist.Modules), p.Modules,
			len(r.Ours.Bridging.Nets), p.Nets,
			r.Ours.Clustering.Stats().Nodes, p.Nodes)
	}
	return pr.err
}

// Table2 prints the space-time volume comparison (paper Table II):
// canonical, [22] 1D/2D (plus box volume) and ours.
func Table2(w io.Writer, rows []*Row) error {
	pr := &printer{w: w}
	pr.printf("Table II — space-time volume (ratio over ours; paper avg ratios: canonical %.2f, 1D %.2f, 2D %.2f)\n",
		paper.Headline.CanonicalRatio, paper.Headline.Lin1DRatio, paper.Headline.Lin2DRatio)
	pr.printf("%-14s %12s %7s %12s %7s %12s %7s %12s %10s\n",
		"benchmark", "canonical", "ratio", "[22]1D", "ratio", "[22]2D", "ratio", "ours", "time")
	var sc, s1, s2 float64
	for _, r := range rows {
		box := r.boxVol()
		can := r.Canonical.TotalVolume(box)
		l1 := r.Lin1D.TotalVolume(box)
		l2 := r.Lin2D.TotalVolume(box)
		ours := r.Ours.Volume
		sc += metrics.Ratio(can, ours)
		s1 += metrics.Ratio(l1, ours)
		s2 += metrics.Ratio(l2, ours)
		pr.printf("%-14s %12d %7.3f %12d %7.3f %12d %7.3f %12d %9.1fs\n",
			r.Name, can, metrics.Ratio(can, ours), l1, metrics.Ratio(l1, ours),
			l2, metrics.Ratio(l2, ours), ours, r.OursTime.Seconds())
	}
	n := float64(len(rows))
	pr.printf("%-14s %12s %7.3f %12s %7.3f %12s %7.3f %12s\n",
		"Avg. Ratio", "", sc/n, "", s1/n, "", s2/n, "1.000")
	return pr.err
}

// Table3 prints ours vs the conference version [36] (paper Table III).
func Table3(w io.Writer, rows []*Row) error {
	pr := &printer{w: w}
	pr.printf("Table III — conference version [36] vs ours (paper avg ratio %.3f)\n",
		paper.Headline.ConferenceRatio)
	pr.printf("%-14s %12s %7s %8s %12s %8s\n",
		"benchmark", "conference", "ratio", "nodes", "ours", "nodes")
	var sum float64
	cnt := 0
	for _, r := range rows {
		if r.Conference == nil {
			continue
		}
		ratio := metrics.Ratio(r.Conference.Volume, r.Ours.Volume)
		sum += ratio
		cnt++
		pr.printf("%-14s %12d %7.3f %8d %12d %8d\n",
			r.Name, r.Conference.Volume, ratio,
			r.Conference.Clustering.Stats().Nodes,
			r.Ours.Volume, r.Ours.Clustering.Stats().Nodes)
	}
	if cnt > 0 {
		pr.printf("%-14s %12s %7.3f\n", "Avg. Ratio", "", sum/float64(cnt))
	}
	return pr.err
}

// Table4 prints resulting dimensions (paper Table IV).
func Table4(w io.Writer, rows []*Row) error {
	pr := &printer{w: w}
	pr.printf("Table IV — dimensions W×H×D (measured; paper 'Ours' in parentheses)\n")
	pr.printf("%-14s %18s %18s %18s %18s %20s\n",
		"benchmark", "canonical", "[22]1D", "[22]2D", "ours", "paper ours")
	for _, r := range rows {
		p, _ := paper.ByName(r.Name)
		pr.printf("%-14s %18s %18s %18s %18s %20s\n",
			r.Name,
			fmt.Sprintf("%d×%d×%d", r.Canonical.W, r.Canonical.H, r.Canonical.D),
			fmt.Sprintf("%d×%d×%d", r.Lin1D.W, r.Lin1D.H, r.Lin1D.D),
			fmt.Sprintf("%d×%d×%d", r.Lin2D.W, r.Lin2D.H, r.Lin2D.D),
			fmt.Sprintf("%d×%d×%d", r.Ours.Dims.W, r.Ours.Dims.H, r.Ours.Dims.D),
			fmt.Sprintf("(%d×%d×%d)", p.OursW, p.OursH, p.OursD))
	}
	return pr.err
}

// Table5 prints the bridging ablation (paper Table V).
func Table5(w io.Writer, rows []*Row) error {
	pr := &printer{w: w}
	pr.printf("Table V — w/o vs w/ iterative bridging (paper avg: vol ×%.3f, time ×%.3f)\n",
		paper.Headline.NoBridgeVolRatio, paper.Headline.NoBridgeTimeRatio)
	pr.printf("%-14s %12s %7s %9s %7s %12s %9s\n",
		"benchmark", "w/o vol", "ratio", "w/o time", "ratio", "w/ vol", "w/ time")
	var sv, st float64
	cnt := 0
	for _, r := range rows {
		if r.NoBridge == nil {
			continue
		}
		rv := metrics.Ratio(r.NoBridge.Volume, r.Ours.Volume)
		rt := r.NoBridgeTime.Seconds() / r.OursTime.Seconds()
		sv += rv
		st += rt
		cnt++
		pr.printf("%-14s %12d %7.3f %8.1fs %7.3f %12d %8.1fs\n",
			r.Name, r.NoBridge.Volume, rv, r.NoBridgeTime.Seconds(), rt,
			r.Ours.Volume, r.OursTime.Seconds())
	}
	if cnt > 0 {
		pr.printf("%-14s %12s %7.3f %9s %7.3f\n", "Avg. Ratio", "", sv/float64(cnt), "", st/float64(cnt))
	}
	return pr.err
}

// Table6 prints the runtime breakdown (paper Table VI).
func Table6(w io.Writer, rows []*Row) error {
	pr := &printer{w: w}
	pr.printf("Table VI — runtime breakdown (paper avg: bridging %.1f%%, placement %.1f%%, routing %.1f%%, other %.1f%%)\n",
		paper.Headline.BridgingShare, paper.Headline.PlacementShare,
		paper.Headline.RoutingShare, paper.Headline.OtherShare)
	pr.printf("%-14s %10s %7s %10s %7s %10s %7s %10s %7s %9s\n",
		"benchmark", "bridging", "%", "placement", "%", "routing", "%", "other", "%", "total")
	for _, r := range rows {
		b := r.Ours.Breakdown
		pr.printf("%-14s %9.2fs %6.2f%% %9.2fs %6.2f%% %9.2fs %6.2f%% %9.3fs %6.2f%% %8.2fs\n",
			r.Name,
			b.Get(metrics.StageBridging).Seconds(), b.Ratio(metrics.StageBridging),
			b.Get(metrics.StagePlacement).Seconds(), b.Ratio(metrics.StagePlacement),
			b.Get(metrics.StageRouting).Seconds(), b.Ratio(metrics.StageRouting),
			b.Get(metrics.StageOther).Seconds(), b.Ratio(metrics.StageOther),
			b.Total().Seconds())
	}
	for _, r := range rows {
		total := len(r.Ours.Bridging.Nets)
		if total == 0 {
			continue
		}
		pr.printf("%-14s first-pass routing: %d%% of nets (paper band %d-%d%%)\n",
			r.Name, 100*r.Ours.Routing.FirstPassRouted/total,
			paper.Headline.FirstPassLo, paper.Headline.FirstPassHi)
	}
	return pr.err
}

// FigMotivation reproduces the Fig. 4/5 narrative: the three-CNOT circuit
// whose canonical volume is 54, compressed by the flow.
func FigMotivation(w io.Writer, seed int64) error {
	c := qc.New("fig4", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	opts := tqec.DefaultOptions()
	opts.Place.Seed = seed
	res, err := tqec.Compile(c, opts)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Fig. 4/5 — motivating 3-CNOT circuit\n")
	pr.printf("canonical volume: %d (paper: 54)\n", res.CanonicalVolume)
	pr.printf("compressed dims:  %s (paper: bridge-compressed 18 = 3×3×2 for its tighter module geometry)\n", res.Dims)
	pr.printf("bridge merges:    %d, nets %d, unrouted %d\n",
		res.Bridging.Merges, len(res.Bridging.Nets), len(res.Routing.Failed))
	return pr.err
}

// FigBoxes prints the distillation box volumes (Figs. 6/7).
func FigBoxes(w io.Writer) error {
	pr := &printer{w: w}
	pr.printf("Fig. 6/7 — state distillation boxes\n")
	pr.printf("|Y> box: %d×%d×%d = %d (paper: 3×3×2 = 18); ICM circuit: %d lines, %d CNOTs\n",
		distill.YBoxSize.X, distill.YBoxSize.Y, distill.YBoxSize.Z, distill.YBoxVolume,
		len(distill.YCircuit().Lines), len(distill.YCircuit().CNOTs))
	pr.printf("|A> box: %d×%d×%d = %d (paper: 16×6×2 = 192); ICM circuit: %d lines, %d CNOTs\n",
		distill.ABoxSize.X, distill.ABoxSize.Y, distill.ABoxSize.Z, distill.ABoxVolume,
		len(distill.ACircuit().Lines), len(distill.ACircuit().CNOTs))
	return pr.err
}

// FigFriendNet measures the friend-net routing effect (Fig. 19): the same
// placement routed with and without friend-net awareness.
func FigFriendNet(w io.Writer, name string, seed int64) error {
	spec, err := qc.BenchmarkByName(name)
	if err != nil {
		return err
	}
	opts := tqec.DefaultOptions()
	opts.Place.Seed = seed
	c, err := spec.Generate()
	if err != nil {
		return err
	}
	res, err := tqec.Compile(c, opts)
	if err != nil {
		return err
	}
	// Re-route the identical placement without friend nets.
	plain := route.DefaultOptions()
	plain.FriendNets = false
	res2, err := route.Run(res.Placement, plain)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Fig. 19 — friend-net-aware routing on %s (identical placement)\n", name)
	pr.printf("friend-aware: %d/%d routed, %d wire cells, bounds %v\n",
		len(res.Routing.Routes), len(res.Bridging.Nets), res.Routing.WireCells(), res.Routing.Bounds.Size())
	pr.printf("plain:        %d/%d routed, %d wire cells, bounds %v\n",
		len(res2.Routes), len(res.Bridging.Nets), res2.WireCells(), res2.Bounds.Size())
	return pr.err
}

// Summary prints the headline reproduction result.
func Summary(w io.Writer, rows []*Row) error {
	var sc, s2 float64
	for _, r := range rows {
		box := r.boxVol()
		sc += metrics.Ratio(r.Canonical.TotalVolume(box), r.Ours.Volume)
		s2 += metrics.Ratio(r.Lin2D.TotalVolume(box), r.Ours.Volume)
	}
	n := float64(len(rows))
	pr := &printer{w: w}
	pr.printf("Headline: avg volume reduction vs canonical %.0f%% (paper 91%%), vs [22]-2D %.0f%% (paper 84%%)\n",
		100*(1-n/sc), 100*(1-n/s2))
	return pr.err
}
