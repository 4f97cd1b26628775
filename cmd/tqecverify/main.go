// Command tqecverify runs the pipeline's differential and invariant
// verifier (package check) against paper benchmarks and randomized
// circuits: bridging reconstructability, placement and routing legality,
// volume accounting, and the determinism differentials (multi-chain vs
// sequential placement, cached vs fresh compile bytes, bridged vs
// unbridged compilation, and ZX-rewritten vs unrewritten compilation —
// the last two with state-vector backing on small circuits).
//
// Usage:
//
//	tqecverify [-bench name|all|seed] [-random N] [-qubits Q] [-gates G]
//	           [-seed S] [-iters N] [-no-diff] [-timeout 10m] [-v]
//
// The default workload (-bench seed) verifies the two smallest paper
// benchmarks — the configuration `make check` runs in CI. -bench all
// sweeps all eight benchmarks (slow: the large ones take many minutes
// each). -random N appends N randomized circuits; when a randomized
// circuit fails, tqecverify shrinks it to a minimal failing reproduction
// before exiting non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/qc"
)

func main() {
	bench := flag.String("bench", "seed", `benchmarks to verify: a name, "all", or "seed" (the two smallest)`)
	random := flag.Int("random", 0, "additionally verify this many randomized circuits")
	qubits := flag.Int("qubits", 5, "qubit count for randomized circuits")
	gates := flag.Int("gates", 8, "gate count for randomized circuits")
	seed := flag.Int64("seed", 1, "base seed for randomized circuits and the SA engine")
	iters := flag.Int("iters", 0, "SA move budget (0 = the fast default)")
	noDiff := flag.Bool("no-diff", false, "run only the invariant passes (skip recompiling differentials)")
	timeout := flag.Duration("timeout", 0, "abort verification after this long (0 = no limit)")
	verbose := flag.Bool("v", false, "print every pass, not only failures")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := check.DefaultConfig()
	cfg.Differentials = !*noDiff
	cfg.Opts.Place.Seed = *seed
	if *iters > 0 {
		cfg.Opts.Place.Iterations = *iters
	}

	failures := 0
	report := func(rep *check.Report) {
		if *verbose || !rep.OK() {
			fmt.Print(rep)
		} else {
			fmt.Printf("%s: ok (%d passes)\n", rep.Target, len(rep.Passes))
		}
		if !rep.OK() {
			failures++
		}
	}

	for _, name := range benchNames(*bench) {
		rep, err := check.RunBenchmark(ctx, name, cfg)
		if err != nil {
			fatal(err)
		}
		report(rep)
	}

	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < *random; i++ {
		c, err := randomCircuit(rng, *qubits, *gates, i)
		if err != nil {
			fatal(err)
		}
		rep, err := check.Run(ctx, c, cfg)
		if err != nil {
			fatal(err)
		}
		report(rep)
		if !rep.OK() {
			shrinkAndPrint(ctx, c, cfg)
		}
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "tqecverify: %d target(s) failed\n", failures)
		os.Exit(1)
	}
}

// benchNames expands the -bench flag into benchmark names.
func benchNames(sel string) []string {
	switch sel {
	case "seed":
		return []string{"4gt10-v1_81", "4gt4-v0_73"}
	case "all":
		var names []string
		for _, b := range qc.Benchmarks {
			names = append(names, b.Name)
		}
		return names
	case "":
		return nil
	}
	return []string{sel}
}

// randomCircuit generates one randomized verification workload.
func randomCircuit(rng *rand.Rand, qubits, gates, index int) (*qc.Circuit, error) {
	spec := qc.BenchmarkSpec{
		Name:   fmt.Sprintf("random-%d", index),
		Qubits: qubits,
		Seed:   rng.Int63(),
	}
	for i := 0; i < gates; i++ {
		switch {
		case qubits >= 3 && rng.Intn(3) == 0:
			spec.Toffolis++
		case qubits >= 2 && rng.Intn(2) == 0:
			spec.CNOTs++
		default:
			spec.NOTs++
		}
	}
	return spec.Generate()
}

// shrinkAndPrint reduces a failing randomized circuit to a minimal
// reproduction and prints it.
func shrinkAndPrint(ctx context.Context, c *qc.Circuit, cfg check.Config) {
	fmt.Fprintf(os.Stderr, "tqecverify: shrinking %s (%d gates) to a minimal reproduction...\n", c.Name, c.NumGates())
	shrinkCfg := cfg
	shrinkCfg.Differentials = false // invariant failures shrink much faster
	start := time.Now()
	min := check.Shrink(ctx, c, 0, func(ctx context.Context, cand *qc.Circuit) bool {
		rep, err := check.Run(ctx, cand, shrinkCfg)
		if err != nil {
			return false // a compile error is a different failure mode
		}
		return !rep.OK()
	})
	fmt.Fprintf(os.Stderr, "tqecverify: minimal failing circuit after %v: %d qubits, %d gates\n",
		time.Since(start).Round(time.Millisecond), min.NumQubits(), min.NumGates())
	for _, g := range min.Gates {
		fmt.Fprintf(os.Stderr, "tqecverify:   %v\n", g)
	}
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tqecverify:", err)
	os.Exit(1)
}
