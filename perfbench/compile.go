package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/canonical"
	"repro/internal/decompose"
	"repro/internal/distill"
	"repro/internal/icm"
	"repro/internal/qc"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// self is the executable re-run in child mode.
	self string
	// tqecd is the daemon binary of the service workloads.
	tqecd string
	// spanFile receives the spans of a traced run.
	spanFile string
	// killCap bounds one compile.
	killCap time.Duration
	// inputs and rate, when positive, override the number of distinct
	// circuits of the compile workloads and service-hot, and the request
	// rate of service-cold.
	inputs int
	rate   float64
	log    io.Writer
}

// setupRuns is how often a service-cold run sets up (service-hot sets up
// once per hotRounds); compileSetups is how often a compile run does, as
// its set-up is far shorter. setup_s is the median.
const (
	setupRuns     = 3
	compileSetups = 15
)

// runLimit bounds the measured part of a compile run: compiles not
// started by then count as failed, so a run ends well inside three
// minutes even when every compile hits the kill cap.
const runLimit = 120 * time.Second

// compileSpec is a closed-loop compile workload.
type compileSpec struct {
	// perSecond sizes the fixed input list: about this many compiles per
	// second of --seconds on a 2-CPU x86-64 machine.
	perSecond float64
	// inputs are the run's n jobs for a seed.
	inputs func(seed int64, n int) ([]job, error)
}

// compileMix is the two smallest paper benchmarks, then circuits picked
// from mixUniverse, each compiled with one SA chain.
func compileMix(seed int64, n int) ([]job, error) {
	cs, err := paperCircuits(min(n, 2))
	if err != nil {
		return nil, err
	}
	random, err := mixUniverse.pick(seed, n-len(cs))
	if err != nil {
		return nil, err
	}
	return newJobs(append(cs, random...), 1, 0)
}

// paperCircuits are the first n of the two smallest paper benchmarks,
// 4gt10-v1_81 and 4gt4-v0_73.
func paperCircuits(n int) ([]*qc.Circuit, error) {
	var cs []*qc.Circuit
	for _, name := range []string{"4gt10-v1_81", "4gt4-v0_73"}[:n] {
		spec, err := qc.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		c, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// clusteredSplit is circuits picked from clusteredUniverse, compiled
// through the partitioned pipeline at cap 6 with one SA chain per part.
func clusteredSplit(seed int64, n int) ([]job, error) {
	cs, err := clusteredUniverse.pick(seed, n)
	if err != nil {
		return nil, err
	}
	return newJobs(cs, 1, 6)
}

// newJobs renders circuits as jobs.
func newJobs(cs []*qc.Circuit, chains, cap int) ([]job, error) {
	jobs := make([]job, len(cs))
	for i, c := range cs {
		var err error
		if jobs[i], err = newJob(c, chains, cap); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// runCompile measures a compile workload: a fixed, seed-drawn list of
// circuits compiled one at a time, each in its own child process. Set-up
// draws the list compileSetups times.
func runCompile(ctx context.Context, cfg *config, w compileSpec) (*result, error) {
	n := cfg.inputs
	if n <= 0 {
		n = max(1, int(w.perSecond*float64(cfg.seconds)+0.5))
	}
	var jobs []job
	var setups []float64
	for i := 0; i < compileSetups; i++ {
		start := time.Now()
		js, err := w.inputs(cfg.seed, n)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if jobs != nil && !slices.Equal(js, jobs) {
			return nil, fmt.Errorf("set-up %d drew other inputs than set-up 1 from the same seed", i+1)
		}
		jobs = js
	}
	return measureCompiles(ctx, cfg, jobs, setups)
}

// measureCompiles compiles jobs in order, one child process at a time;
// setups are the run's set-up times.
func measureCompiles(ctx context.Context, cfg *config, jobs []job, setups []float64) (*result, error) {
	r := &result{correct: true}
	r.spans.t0 = time.Now()
	deadline := r.spans.t0.Add(runLimit)
	var lat, vols, comps, rss []float64
	var lay layers
	degraded := 0
	for i, j := range jobs {
		r.attempted++
		var cr childRun
		ok := false
		if time.Now().After(deadline) {
			r.fail("%s: not started within %s", j.Name, runLimit)
		} else {
			j.Trace = cfg.trace
			var err error
			if cr, err = runChild(ctx, cfg.self, modeCompile, j, cfg.killCap); err != nil {
				return nil, err
			}
			rss = append(rss, cr.rssMB)
			switch o := cr.out; {
			case cr.killed:
				r.fail("%s: killed at the %s cap", j.Name, cfg.killCap)
			case o.Err != "":
				r.fail("%s: %s", j.Name, o.Err)
			case o.VerifyErr != "":
				r.correct = false
				r.fail("%s: %s", j.Name, o.VerifyErr)
			default:
				ok = true
			}
		}
		if !ok {
			v, err := fallbackVolume(j)
			if err != nil {
				return nil, err
			}
			vols, comps = append(vols, v), append(comps, 1)
			continue
		}
		o := cr.out
		lat = append(lat, o.CompileS)
		vols, comps = append(vols, float64(o.Volume)), append(comps, o.Compression)
		if o.Degraded {
			degraded++
		}
		if o.Layers != nil {
			lay.add(o.Layers)
			r.spans.adopt(fmt.Sprintf("compile-%d", i), "child", cr)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no compile of %d succeeded", len(jobs))
	}

	r.notef("workload %s: %d compiles, %d failed (failed_share %.4f), %d degraded (degraded_share %.4f)",
		cfg.workload, r.attempted, r.failed, float64(r.failed)/float64(r.attempted), degraded, float64(degraded)/float64(r.attempted))
	r.endToEnd = endToEndMetrics(setups, lat, vols, comps, quantile(rss, 0.5),
		fmt.Sprintf("median ru_maxrss of %d compile children, largest %.6g", len(rss), quantile(rss, 1)))
	if cfg.trace {
		r.perLayer = layerMetrics(&lay)
		layerNotes(r, &lay)
	}
	return r, nil
}

// fallbackVolume is the volume charged to a compile that failed: the
// canonical layout of the circuit without ZX rewriting, plus its
// distillation boxes.
func fallbackVolume(j job) (float64, error) {
	c, err := j.circuit()
	if err != nil {
		return 0, err
	}
	d, err := decompose.Decompose(c)
	if err != nil {
		return 0, err
	}
	ic, err := icm.FromDecomposed(d.Circuit)
	if err != nil {
		return 0, err
	}
	desc, err := canonical.Build(ic)
	if err != nil {
		return 0, err
	}
	st := ic.Stats()
	return float64(desc.Volume() + distill.BoxVolume(st.NumY, st.NumA)), nil
}
