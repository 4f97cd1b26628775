// Package check is the pipeline's differential and invariant verifier.
// It re-derives, from first principles, the structural guarantees every
// stage of the bridge-based compression flow claims to maintain — bridging
// reconstructability (Algorithm 1's chains decompose back into the
// original dual loops), placement legality (overlap freedom, tier
// discipline, time ordering), routing legality (re-walked paths against
// static obstacles and pin anchors), and volume accounting (the reported
// compression metrics reconcile with the geometry) — and cross-checks the
// pipeline's determinism contracts differentially: multi-chain SA
// placement against its sequential twin, cached compile bytes against a
// fresh compile, bridged against unbridged compilations, ZX-rewritten
// against unrewritten compilations, and partitioned against whole-circuit
// compilations (all backed by state-vector simulation on small circuits).
//
// The passes are pure observers: they never mutate the result under test.
// cmd/tqecverify drives them from the command line, `make check` wires
// them into CI, and FuzzPipelineInvariants feeds them randomized circuits.
package check

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/qc"
	"repro/tqec"
)

// PassResult records one verification pass's outcome.
type PassResult struct {
	// Name identifies the pass (e.g. "bridge-reconstructable").
	Name string
	// Err is nil when the pass succeeded.
	Err error
	// Skipped marks a pass that did not apply to this target (e.g. a
	// simulation bound was exceeded); Err is nil for skipped passes.
	Skipped bool
	// Detail optionally summarizes what the pass covered.
	Detail string
}

// Report aggregates the pass results for one verification target.
type Report struct {
	// Target names the circuit or benchmark verified.
	Target string
	// Passes lists every pass outcome in execution order.
	Passes []PassResult
}

// OK reports whether every pass succeeded (skipped passes count as ok).
func (r *Report) OK() bool {
	for _, p := range r.Passes {
		if p.Err != nil {
			return false
		}
	}
	return true
}

// Err returns the first pass failure, or nil when the report is clean.
func (r *Report) Err() error {
	for _, p := range r.Passes {
		if p.Err != nil {
			return fmt.Errorf("check: %s: %s: %w", r.Target, p.Name, p.Err)
		}
	}
	return nil
}

// String renders the report as one line per pass.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.Target)
	for _, p := range r.Passes {
		status := "ok"
		switch {
		case p.Err != nil:
			status = "FAIL: " + p.Err.Error()
		case p.Skipped:
			status = "skip"
		}
		fmt.Fprintf(&b, "  %-22s %s", p.Name, status)
		if p.Detail != "" && p.Err == nil {
			fmt.Fprintf(&b, " (%s)", p.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Config selects which pass families a Run executes.
type Config struct {
	// Opts configures the primary compilation under test.
	Opts tqec.Options
	// Differentials enables the recompilation-based passes (extra
	// placements, routings and compiles on top of the primary one).
	Differentials bool
	// MaxSimQubits bounds state-vector equivalence checking inside the
	// bridging differential: circuits whose decomposed form needs more
	// qubits skip the simulation (0 disables simulation entirely).
	MaxSimQubits int
	// Chains is the multi-chain fan-out K exercised by the placement
	// determinism differential (values below 2 default to 2).
	Chains int
}

// DefaultConfig returns the full pass set with fast compile options and a
// simulation bound affordable on a laptop.
func DefaultConfig() Config {
	return Config{
		Opts:          tqec.FastOptions(),
		Differentials: true,
		MaxSimQubits:  16,
		Chains:        2,
	}
}

// Run compiles the circuit once and executes every configured pass
// against the result. The compile error, if any, is returned directly;
// pass failures land in the report.
func Run(ctx context.Context, c *qc.Circuit, cfg Config) (*Report, error) {
	res, err := tqec.CompileContext(ctx, c, cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("check: compile %s: %w", c.Name, err)
	}
	return Result(ctx, res, cfg), nil
}

// RunBenchmark generates one of the paper's RevLib benchmarks and runs
// the configured passes on it.
func RunBenchmark(ctx context.Context, name string, cfg Config) (*Report, error) {
	spec, err := qc.BenchmarkByName(name)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	c, err := spec.Generate()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return Run(ctx, c, cfg)
}

// Result executes the configured passes against an existing compilation
// result. The invariant passes always run; the differential passes run
// when cfg.Differentials is set.
func Result(ctx context.Context, res *tqec.Result, cfg Config) *Report {
	target := "circuit"
	if res.Circuit != nil && res.Circuit.Name != "" {
		target = res.Circuit.Name
	} else if res.ICM != nil && res.ICM.Name != "" {
		target = res.ICM.Name
	}
	rep := &Report{Target: target}
	add := func(name string, detail string, err error) {
		rep.Passes = append(rep.Passes, PassResult{Name: name, Err: err, Detail: detail})
	}

	add("bridge-reconstructable",
		fmt.Sprintf("%d loops, %d structures", len(res.Netlist.Loops), len(res.Bridging.Structures)),
		BridgeReconstructable(res))
	add("placement-legal",
		fmt.Sprintf("%d supers, %d tiers", len(res.Placement.Clust.Supers), res.Placement.Tiers),
		PlacementLegal(res))
	add("routing-legal",
		fmt.Sprintf("%d nets", len(res.Bridging.Nets)),
		RoutingLegal(res))
	add("volume-accounting",
		fmt.Sprintf("volume %d", res.Volume),
		VolumeAccounting(res))

	if !cfg.Differentials {
		return rep
	}
	chains := cfg.Chains
	if chains < 2 {
		chains = 2
	}
	add("diff-chains", fmt.Sprintf("K=%d", chains), DiffChains(ctx, res, cfg.Opts, chains))
	if res.Circuit != nil {
		add("diff-cache-bytes", "", DiffCacheBytes(ctx, res, cfg.Opts))
		simmed, err := DiffBridging(ctx, res, cfg.Opts, cfg.MaxSimQubits)
		detail := "sim skipped"
		if simmed {
			detail = "sim verified"
		}
		add("diff-bridging", detail, err)
		simmed, err = DiffZX(ctx, res, cfg.Opts, cfg.MaxSimQubits)
		detail = "sim skipped"
		if simmed {
			detail = "sim verified"
		}
		add("diff-zx", detail, err)
		simmed, err = DiffPartition(ctx, res, cfg.Opts, cfg.MaxSimQubits)
		detail = "sim skipped"
		if simmed {
			detail = "sim verified"
		}
		add("diff-partition", detail, err)
	} else {
		rep.Passes = append(rep.Passes,
			PassResult{Name: "diff-cache-bytes", Skipped: true, Detail: "no source circuit"},
			PassResult{Name: "diff-bridging", Skipped: true, Detail: "no source circuit"},
			PassResult{Name: "diff-zx", Skipped: true, Detail: "no source circuit"},
			PassResult{Name: "diff-partition", Skipped: true, Detail: "no source circuit"})
	}
	return rep
}
