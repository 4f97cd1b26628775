// Command tqecc compresses one circuit through the full bridge-based
// compression flow and reports the resulting geometry.
//
// Usage:
//
//	tqecc -bench 4gt10-v1_81 [-iters N] [-seed S] [-no-bridging] [-no-zx]
//	      [-conference] [-timeout 30s] [-viz slices|csv|obj] [-o out.txt]
//	tqecc -real circuit.real [...]
//
// Exactly one of -bench (a paper benchmark name) or -real (a RevLib .real
// file) selects the input. -viz writes a layout rendering of the result
// (the paper's Fig. 20) to -o (default stdout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/partition"
	"repro/internal/qc"
	"repro/internal/viz"
	"repro/tqec"
)

func main() {
	bench := flag.String("bench", "", "paper benchmark name (see -list)")
	realFile := flag.String("real", "", "RevLib .real circuit file")
	list := flag.Bool("list", false, "list available benchmarks")
	iters := flag.Int("iters", 0, "SA move budget (0 = auto)")
	seed := flag.Int64("seed", 1, "random seed")
	noBridging := flag.Bool("no-bridging", false, "disable iterative bridging (Table V ablation)")
	noZX := flag.Bool("no-zx", false, "disable the ZX pre-compression pass (paper-faithful ablation)")
	conference := flag.Bool("conference", false, "disable primal-group clustering (conference version [36])")
	vizMode := flag.String("viz", "", "emit a layout rendering: slices, csv, svg or obj")
	out := flag.String("o", "", "visualization output file (default stdout)")
	timeout := flag.Duration("timeout", 0, "abort compilation after this long (0 = no limit)")
	partitionCap := flag.Int("partition", 0, "partitioned compile: max qubits per part (0 = whole-circuit compile)")
	flag.Parse()

	if *list {
		for _, b := range qc.Benchmarks {
			fmt.Printf("%-16s %2d qubits, %3d gates\n", b.Name, b.Qubits, b.Gates())
		}
		return
	}

	circuit, err := loadCircuit(*bench, *realFile)
	if err != nil {
		fatal(err)
	}

	opts := tqec.DefaultOptions()
	opts.Place.Iterations = *iters
	opts.Place.Seed = *seed
	opts.Bridging = !*noBridging
	opts.ZX = !*noZX
	opts.PrimalGroups = !*conference

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *partitionCap > 0 {
		opts.Partition = partition.Options{MaxQubitsPerPart: *partitionCap, Seed: *seed}
		runPartitioned(ctx, circuit, opts)
		return
	}
	res, err := tqec.CompileContext(ctx, circuit, opts)
	if err != nil {
		fatal(err)
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "tqecc: warning: degraded routing (%d fallback, %d unrouted net(s)); see diagnostics below\n",
			len(res.Routing.FallbackNets), len(res.Routing.Failed))
		for _, f := range res.Routing.FailedNets {
			fmt.Fprintf(os.Stderr, "tqecc:   net %d: %s\n", f.NetID, f.Reason)
		}
	}

	s := res.ICM.Stats()
	fmt.Printf("circuit:   %s (%d qubits, %d gates)\n", circuit.Name, circuit.NumQubits(), circuit.NumGates())
	fmt.Printf("ICM:       %d lines, %d CNOTs, %d |Y>, %d |A>\n", s.Lines, s.CNOTs, s.NumY, s.NumA)
	fmt.Printf("netlist:   %d modules, %d loops -> %d structures (%d merges), %d nets\n",
		len(res.Netlist.Modules), len(res.Netlist.Loops),
		len(res.Bridging.Structures), res.Bridging.Merges, len(res.Bridging.Nets))
	fmt.Printf("placement: %d nodes on %d tiers, wirelength %d\n",
		res.Clustering.Stats().Nodes, res.Placement.Tiers, res.Placement.WireLength)
	fmt.Printf("routing:   %d/%d nets routed (%d first pass, %d rip-ups)\n",
		len(res.Routing.Routes), len(res.Bridging.Nets),
		res.Routing.FirstPassRouted, res.Routing.RippedUp)
	fmt.Printf("result:    %s  (canonical %d + boxes %d; compression x%.2f)\n",
		res.Dims, res.CanonicalVolume, res.BoxVolume, res.CompressionRatio())
	fmt.Printf("runtime breakdown:\n%s", res.Breakdown)

	if *vizMode != "" {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		scene := viz.BuildScene(res.Placement, res.Routing)
		switch *vizMode {
		case "slices":
			err = scene.WriteSlices(w)
		case "csv":
			err = scene.WriteCSV(w)
		case "obj":
			err = viz.WriteOBJ(w, res.Placement, res.Routing)
		case "svg":
			err = scene.WriteSVG(w, 4)
		default:
			err = fmt.Errorf("unknown viz mode %q", *vizMode)
		}
		if err != nil {
			fatal(err)
		}
	}
}

// runPartitioned compiles through the partitioned pipeline and prints the
// combined geometry plus the per-part and seam summaries.
func runPartitioned(ctx context.Context, circuit *qc.Circuit, opts tqec.Options) {
	res, err := tqec.CompilePartitionedContext(ctx, circuit, opts)
	if err != nil {
		fatal(err)
	}
	if res.Degraded {
		fmt.Fprintln(os.Stderr, "tqecc: warning: degraded routing in a part or the seam stitching")
	}
	parts, seams, largest := res.Partition.Stats()
	fmt.Printf("circuit:   %s (%d qubits, %d gates)\n", circuit.Name, circuit.NumQubits(), circuit.NumGates())
	fmt.Printf("partition: %d part(s), %d seam(s), largest part %d qubits (cap %d)\n",
		parts, seams, largest, opts.Partition.MaxQubitsPerPart)
	for i, part := range res.Parts {
		src := &res.Partition.Parts[i]
		if part == nil {
			fmt.Printf("  part %d:  %d qubits, %d gates — no geometry (slab %v)\n",
				i, len(src.Qubits), src.Circuit.NumGates(), res.Slabs[i])
			continue
		}
		fmt.Printf("  part %d:  %d qubits, %d gates -> %s (volume %d), slab %v\n",
			i, len(src.Qubits), src.Circuit.NumGates(), part.Dims, part.Volume, res.Slabs[i])
	}
	if sr := res.SeamRouting; sr != nil {
		fmt.Printf("seams:     %d/%d routed (%d fallback, %d failed)\n",
			len(sr.Routes), len(res.SeamNets), len(sr.FallbackNets), len(sr.Failed))
	}
	fmt.Printf("result:    %s  (canonical %d + boxes %d; compression x%.2f)\n",
		res.Dims, res.CanonicalVolume, res.BoxVolume, res.CompressionRatio())
	fmt.Printf("runtime breakdown:\n%s", res.Breakdown)
}

func loadCircuit(bench, realFile string) (*qc.Circuit, error) {
	switch {
	case bench != "" && realFile != "":
		return nil, fmt.Errorf("use either -bench or -real, not both")
	case bench != "":
		spec, err := qc.BenchmarkByName(bench)
		if err != nil {
			return nil, err
		}
		return spec.Generate()
	case realFile != "":
		f, err := os.Open(realFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return qc.ParseReal(realFile, f)
	default:
		return nil, fmt.Errorf("select an input with -bench or -real (or -list)")
	}
}

func fatal(err error) {
	if se, ok := tqec.AsStageError(err); ok {
		switch {
		case errors.Is(err, tqec.ErrCanceled):
			fmt.Fprintf(os.Stderr, "tqecc: stage %s aborted: %v\n", se.Stage, se.Err)
		case errors.Is(err, tqec.ErrPanic):
			fmt.Fprintf(os.Stderr, "tqecc: stage %s crashed: %v\n%s", se.Stage, se.Err, se.Stack)
		default:
			fmt.Fprintf(os.Stderr, "tqecc: stage %s failed: %v\n", se.Stage, se.Err)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "tqecc:", err)
	os.Exit(1)
}
