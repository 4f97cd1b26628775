// Command perfbench is the repository benchmark: it measures the
// compiler end to end, as a tqecc user and a tqecd client see it, and
// layer by layer in a separate traced run.
//
// Run it from the repository root through run.sh, which builds this
// command and cmd/tqecd from source into .bench_build:
//
//	bash perfbench/run.sh --workload compile-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it name every
// metric with its unit and how it was taken. BENCHMARK.json at the
// repository root lists the workloads and metrics with their regression
// bounds; for these workloads it supersedes BENCHMARKS.md and the
// BENCH_*.json artifacts of cmd/tqecbench, which stay as they are.
//
// # Workloads
//
// Every input comes from a universe: a fixed list of circuits in which
// draw i depends only on the universe and i (see inputs.go). The seed
// picks a run's circuits from it, so the same seed gives the same inputs,
// on every build and machine. The picks sit at evenly spaced ranks of the
// universe sorted by stratum (for the random classes the Toffoli, CNOT and
// NOT counts, then the qubit count), so every seed compiles the same mix of
// large and small circuits and only which ones follow the seed. Every compile uses SA seed
// 1 and one SA chain, so volumes do not depend on the machine. Two chains
// on a 2-CPU machine made the latency tail's run-to-run spread about four
// times wider, as both chains wait on the slower one at every exchange.
//
//   - compile-mix: closed loop, one client, one compile at a time, each in
//     a fresh process as a tqecc user runs it, through
//     tqec.CompileContext. The inputs are 4gt10-v1_81, 4gt4-v0_73 and
//     random reversible circuits of tqecverify's class: 5–8 qubits and
//     8–16 gates, each a Toffoli with probability 1/3, else a CNOT or a
//     NOT. Placement and routing do most of the work; partitioning and the
//     server do none.
//   - clustered-split: closed loop as above over clustered circuits (four
//     CNOT rings of 5–6 qubits, two Toffolis per ring at random offsets, a
//     NOT per qubit, random bridge CNOTs), compiled with
//     tqec.CompilePartitionedContext at cap 6. The partitioner, concurrent
//     part compiles and seam stitching do the work.
//   - service-hot: five times, a fresh tqecd -workers 2 with the default
//     cache compiles 16 circuits in set-up and then serves a fifth of the
//     window to one closed-loop client, which sends synchronous
//     POST /v1/compile as soon as its previous reply arrives, keys drawn
//     Zipf(1.1), the most requested having the fewest Toffolis. Every
//     request hits, so request parsing, the content address, the cache
//     read and the HTTP write dominate; no compile runs. An open loop at
//     200 requests/s was tried first: its millisecond latencies moved by a
//     quarter between runs of the same inputs, as they mostly measured how
//     fast an idle CPU wakes. Two closed-loop clients kept both CPUs busy,
//     so other load on the host moved the tail by a quarter too (see
//     runHot).
//   - service-cold: open loop at 5 requests/s of asynchronous
//     POST /v1/jobs polled every 10 ms, against tqecd -workers 2
//     -cache-bytes 8192 -timeout 10s, with 15 s of grace after the last
//     send. Every request is a distinct circuit, so every request misses
//     and, once the small cache is full, every insert evicts: admission,
//     queueing, worker compiles and the cache's write path dominate.
//
// The service circuits are of tqecverify's class with 5–6 qubits and 6–10
// gates. A random Clifford+T class is left out until bridging is bounded.
//
// Compile workloads compile a fixed list of inputs sized so that a run
// takes about --seconds on a 2-CPU x86-64 machine; a fixed list keeps the
// inputs of two builds identical. service-hot runs for --seconds over one
// keep-alive connection; service-cold sends 5·seconds requests over at most
// runtime.NumCPU() connections, each timed from when it was due, and
// reports how late the generator ran (a run more than 50 ms behind is
// marked incorrect).
//
// Small random circuits hit an exponential case of the bridging path
// search now and then (17 of compile-mix's 2000 draws ran past 5 s), and
// bridging ignores cancellation. So
// every compile runs in a child process killed after 10 s (counted as
// failed), and the universes leave out the draws listed in excluded.txt:
// those that failed or ran past 5 s when perfbench --screen compiled every
// draw once, offline. Regenerate the list with
//
//	go -C perfbench run . --screen > perfbench/excluded.txt
//
// only when a universe changes; a build that makes a listed-as-good input
// fail or overrun shows as failed compiles, not as other inputs.
//
// # End-to-end metrics (untraced runs)
//
//   - setup_s: the median of the run's set-ups. Compile workloads: picking
//     and rendering the inputs, fifteen times. Service workloads, five times
//     on service-hot and three on service-cold: from starting tqecd until
//     /healthz answers 200, plus the warm-up compiles, sent one at a time
//     (the 16 keys of service-hot; 4gt10-v1_81 and 4gt4-v0_73 for
//     service-cold, the same on every seed).
//   - latency_p50_s, latency_tail_s: compile workloads time the child's
//     call into tqec alone; service-hot times each request from send to
//     reply, service-cold from when it was due until its payload arrived.
//     The tail is p90, or the highest of p85, p80 and p75 that leaves ten
//     samples beyond it when a run has fewer than a hundred (see
//     tailPercent); the note printed with it names the percentile.
//   - volume_geomean and compression_geomean: geometric means over the
//     distinct circuits of the final volume and of (canonical volume + box
//     volume) / final volume. A failed compile counts at its canonical
//     volume plus box volume, computed without ZX, and compression 1.
//   - peak_rss_mb: compile workloads, the median over compile children of
//     each one's ru_maxrss; service workloads, the measured tqecd's
//     ru_maxrss at exit, the median over the five daemons on service-hot
//     (Linux only; MB are 2^20 bytes).
//
// Every timing moved by a tenth or more between runs of the same inputs
// on a shared 2-CPU virtual machine, since other tenants slow its CPUs for
// tens of seconds at a time; the bounds in BENCHMARK.json allow for that.
// Failure and degradation shares, the SLO miss share (25 ms hot, 2 s
// cold) and completed requests per second are printed as notes, as they
// are often 0; failures are also the summary's failed count.
//
// # Checks
//
// Every compile result passes Result.Verify, check.BridgeReconstructable
// and check.VolumeAccounting (each part of a partitioned result too),
// outside the timed region; a degraded result, which Result.Verify
// rejects by design, must instead have a legal placement and structurally
// sound routes. Served payloads must carry their content address. Every
// service-hot reply must equal its key's set-up payload byte for byte,
// and each key's payload, like every tenth service-cold payload, must
// equal server.EncodeResult of a fresh compile in a child process.
//
// # Traced run
//
// --trace 1 runs the same workload and reports per-layer metrics instead.
// They are read from what the library returns for each compile: stage
// times from Result.Breakdown (preprocess is decomposition, ICM, canonical
// form and modularization; place is clustering and SA placement), sizes
// and counts from the intermediate results, summed over the compiles and
// over the parts of a partitioned compile. The child also reports the
// heap it allocated during the library call and times its own calls to
// tqec.CacheKey, server.EncodeResult and the checks. The service
// workloads account the reference compiles of their checks and record a
// client span per request; the daemon's own counters over the window
// (queue wait, compile time, cache hit ratio and evictions, admission
// rejections, retries), the client latency split by X-Tqecd-Cache, and
// the layer times only some workloads have (partition and stitch, route
// rip-up) are printed as notes, and so are the traced run's end-to-end
// numbers: against an untraced run of the same seed they give the tracing
// overhead. Spans of the children and requests stay in memory and are
// written at exit to --spans.
//
// What each layer should move: place.* and route.* move latency_p50_s on
// compile-mix, route.* its latency_tail_s too; bridge.* moves the latency
// tail of compile-mix and service-cold; zx.gate_ratio moves
// volume_geomean, not time; icm.cnots and modular.loops show an earlier
// pass leaving later ones less work; compile.alloc_mb moves peak_rss_mb;
// partition.seams and the stitch note move latency and peak_rss_mb on
// clustered-split and stay 0 elsewhere; cachekey.busy_s and encode.busy_s
// move service-hot's latency; verify.busy_s is the benchmark's own cost,
// outside every timed region.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	why string
	run func(ctx context.Context, cfg *config) (*result, error)
}

var workloads = map[string]workload{
	"compile-mix": {
		why: "tqecc users compiling small reversible circuits; placement and routing dominate",
		run: func(ctx context.Context, cfg *config) (*result, error) {
			return runCompile(ctx, cfg, compileSpec{perSecond: 2.5, inputs: compileMix})
		},
	},
	"clustered-split": {
		why: "partitioned compiles of clustered circuits; partition, concurrent parts and stitching dominate",
		run: func(ctx context.Context, cfg *config) (*result, error) {
			return runCompile(ctx, cfg, compileSpec{perSecond: 2.8, inputs: clusteredSplit})
		},
	},
	"service-hot": {
		why: "tqecd cache hits from a closed loop; request parsing, the cache read and the HTTP write dominate",
		run: runHot,
	},
	"service-cold": {
		why: "tqecd misses; admission, queueing, worker compiles and cache evictions dominate",
		run: runCold,
	},
}

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Int("seconds", 20, "run length in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	tqecd := fs.String("tqecd", filepath.Join(".bench_build", "tqecd"), "tqecd binary of the service workloads")
	screen := fs.Bool("screen", false, "compile every input universe draw and print the excluded.txt lines, instead of running a workload")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\nworkloads:\n")
		for _, n := range workloadNames() {
			fmt.Fprintf(fs.Output(), "  %-16s %s\n", n, workloads[n].why)
		}
		fmt.Fprintf(fs.Output(), "\nSee the package documentation (go doc) for metrics, bounds and the traced run.\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *screen {
		if err := screenUniverses(context.Background(), self, screenCap, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	cfg := &config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		self:     self,
		tqecd:    *tqecd,
		spanFile: *spans,
		killCap:  10 * time.Second,
		log:      stderr,
	}
	if cfg.spanFile == "" {
		cfg.spanFile = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
	}
	r, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		if err := r.spans.write(cfg.spanFile, *name, *seed); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		r.notef("spans: %d written to %s", len(r.spans.spans), cfg.spanFile)
	}
	if err := r.print(stdout, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// screenCap bounds one compile of the offline screen: half the kill cap,
// so an input that passed it has room to spare in a run.
const screenCap = 5 * time.Second

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
