package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/server"
	"repro/tqec"
)

// childEnv selects the hidden child mode: the benchmark re-executes itself
// with this variable set to a mode, writes one job to the child's stdin
// and reads one outcome from its stdout. A child that runs past its cap is
// killed, which is the only reliable bound while bridging ignores
// cancellation.
const childEnv = "PERFBENCH_CHILD"

// modeCompile is the child mode: it times one tqec compile, then
// verifies and encodes the result outside the timed region.
const modeCompile = "compile"

// outcome is a child's report on one job.
type outcome struct {
	// CompileS is the wall time of the tqec compile call alone.
	CompileS float64 `json:"compile_s"`
	// Volume is the final space-time volume and Compression the
	// canonical-plus-box volume over it.
	Volume      int     `json:"volume"`
	Compression float64 `json:"compression"`
	Degraded    bool    `json:"degraded"`
	// Digest is the hex SHA-256 of the server.EncodeResult (or
	// EncodePartitionedResult) payload, the bytes tqecd would serve.
	Digest string `json:"digest"`
	// Err is a compile failure.
	Err string `json:"err,omitempty"`
	// VerifyErr is a failed check of the result.
	VerifyErr string `json:"verify_err,omitempty"`
	// Layers and Spans are filled by traced compiles.
	Layers *layers `json:"layers,omitempty"`
	Spans  []span  `json:"spans,omitempty"`
}

// childRun is what the parent learns about one child process.
type childRun struct {
	out    outcome
	killed bool
	// start and wall bound the child process.
	start time.Time
	wall  time.Duration
	// rssMB is the child's peak resident set (ru_maxrss).
	rssMB float64
}

// runChild runs one job in a child process of the executable self and
// kills the child once limit passes.
func runChild(ctx context.Context, self, mode string, j job, limit time.Duration) (childRun, error) {
	in, err := json.Marshal(j)
	if err != nil {
		return childRun{}, fmt.Errorf("encode job: %w", err)
	}
	cctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	cmd := exec.CommandContext(cctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	cmd.Stdin = bytes.NewReader(in)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = time.Second
	setDeathSignal(cmd)
	r := childRun{start: time.Now()}
	err = cmd.Run()
	r.wall = time.Since(r.start)
	if cmd.ProcessState != nil {
		r.rssMB = maxRSSMB(cmd.ProcessState)
	}
	if ctx.Err() == nil && errors.Is(cctx.Err(), context.DeadlineExceeded) {
		r.killed = true
		return r, nil
	}
	if err != nil {
		return r, fmt.Errorf("%s child for %s: %w", mode, j.Name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &r.out); err != nil {
		return r, fmt.Errorf("%s child for %s: bad outcome: %w", mode, j.Name, err)
	}
	return r, nil
}

// childMain serves one job in child mode and returns the exit code.
func childMain(mode string, in io.Reader, out io.Writer) int {
	var j job
	if err := json.NewDecoder(in).Decode(&j); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: read job:", err)
		return 2
	}
	if mode != modeCompile {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown mode %q\n", mode)
		return 2
	}
	if err := json.NewEncoder(out).Encode(compileJob(j)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: write outcome:", err)
		return 2
	}
	return 0
}

// compileJob times one library compile, then encodes and verifies the
// result; a traced job also reports the per-layer account of the result
// and the heap allocated during the compile.
func compileJob(j job) outcome {
	var o outcome
	c, err := j.circuit()
	if err != nil {
		o.Err = err.Error()
		return o
	}
	ctx := context.Background()
	opts := j.options()
	var tr *spanLog
	if j.Trace {
		tr = newSpanLog()
	}
	var key string
	if _, err := tr.do("cachekey", 0, func() (err error) {
		key, err = tqec.CacheKey(c, opts)
		return err
	}); err != nil {
		o.Err = err.Error()
		return o
	}

	var (
		res           *tqec.Result
		pres          *tqec.PartitionedResult
		before, after runtime.MemStats
	)
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	if j.Cap > 0 {
		pres, err = tqec.CompilePartitionedContext(ctx, c, opts)
	} else {
		res, err = tqec.CompileContext(ctx, c, opts)
	}
	end := time.Now()
	o.CompileS = end.Sub(start).Seconds()
	if err != nil {
		o.Err = err.Error()
		return o
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
		tr.add("", "compile", "", start, end, 0)
	}

	var body []byte
	if _, err := tr.do("encode", 0, func() (err error) {
		if pres != nil {
			body, err = server.EncodePartitionedResult(key, c.Name, j.Cap, pres)
		} else {
			body, err = server.EncodeResult(key, res)
		}
		return err
	}); err != nil {
		o.Err = err.Error()
		return o
	}
	o.Digest = digest(body)
	if pres != nil {
		o.Volume, o.Compression, o.Degraded = pres.Volume, pres.CompressionRatio(), pres.Degraded
	} else {
		o.Volume, o.Compression, o.Degraded = res.Volume, res.CompressionRatio(), res.Degraded
	}
	if _, err := tr.do("verify", 0, func() error {
		if pres != nil {
			return verifyPartitioned(pres)
		}
		return verifyResult(res)
	}); err != nil {
		o.VerifyErr = err.Error()
	}

	if tr != nil {
		lay := &layers{AllocBytes: after.TotalAlloc - before.TotalAlloc, Mallocs: after.Mallocs - before.Mallocs}
		if pres != nil {
			lay.addPartitioned(pres)
		} else {
			lay.addResult(res)
		}
		lay.addSpans(tr.spans)
		o.Layers, o.Spans = lay, tr.spans
	}
	return o
}

// verifyResult checks one result: the library's own structural checks,
// then reconstructability of the bridged loops and the volume accounting.
// Result.Verify rejects degraded routing by design, so a degraded result
// (counted in degraded_share) is held to the checks that hold for
// degraded layouts: a legal placement and collision-free, anchored routes
// for every net that was routed.
func verifyResult(res *tqec.Result) error {
	if res.Degraded {
		if err := res.Netlist.Validate(); err != nil {
			return fmt.Errorf("netlist: %w", err)
		}
		if err := check.PlacementLegal(res); err != nil {
			return fmt.Errorf("placement: %w", err)
		}
		if err := check.RoutingStructurallySound(res); err != nil {
			return fmt.Errorf("degraded routing: %w", err)
		}
	} else if err := res.Verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := check.BridgeReconstructable(res); err != nil {
		return fmt.Errorf("bridge reconstructability: %w", err)
	}
	if err := check.VolumeAccounting(res); err != nil {
		return fmt.Errorf("volume accounting: %w", err)
	}
	return nil
}

// verifyPartitioned checks a partitioned result and every compiled part.
// Slab and seam checks run only on results without degradation, for
// which PartitionedResult.Verify is defined.
func verifyPartitioned(p *tqec.PartitionedResult) error {
	if !p.Degraded {
		if err := p.Verify(); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	for i, part := range p.Parts {
		if part == nil {
			continue
		}
		if err := verifyResult(part); err != nil {
			return fmt.Errorf("part %d: %w", i, err)
		}
	}
	return nil
}

// digest is the hex SHA-256 of a payload.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
