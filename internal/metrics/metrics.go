// Package metrics collects the per-stage runtime breakdown and dimension
// summaries reported in the paper's Tables IV and VI.
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// Stage names used by the compression pipeline (Table VI's columns, plus
// the ZX pre-compression stage added on top of the paper's flow).
const (
	StageOther     = "other"
	StageZX        = "zx rewrite"
	StageBridging  = "iterative bridging"
	StagePlacement = "module placement"
	StageRouting   = "dual-defect net routing"
	StagePartition = "qubit partition"
	StageStitch    = "seam stitching"
)

// AllStages lists every stage name above; consumers that keep per-stage
// state (the service's latency histograms) build it from this list.
var AllStages = []string{StageOther, StageZX, StageBridging, StagePlacement, StageRouting, StagePartition, StageStitch}

// Counter names used by the fault-tolerant pipeline.
const (
	CounterPlacementRetries = "placement retries"
	CounterFallbackNets     = "fallback-routed nets"
	CounterUnroutedNets     = "unrouted nets"
	CounterDegradations     = "degraded stages"
	CounterRecoveredPanics  = "recovered panics"
	CounterZXGatesBefore    = "zx gates before"
	CounterZXGatesAfter     = "zx gates after"
	CounterZXRewrites       = "zx rewrites"
	CounterZXFallbacks      = "zx fallbacks"
)

// Breakdown accumulates wall-clock time per pipeline stage plus event
// counters (retries, degradations, recovered panics).
type Breakdown struct {
	durations map[string]time.Duration
	order     []string

	counters     map[string]int
	counterOrder []string
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{
		durations: map[string]time.Duration{},
		counters:  map[string]int{},
	}
}

// Time runs f and charges its wall time to the stage.
func (b *Breakdown) Time(stage string, f func()) {
	start := time.Now()
	f()
	b.Add(stage, time.Since(start))
}

// Add charges d to the stage.
func (b *Breakdown) Add(stage string, d time.Duration) {
	if _, ok := b.durations[stage]; !ok {
		b.order = append(b.order, stage)
	}
	b.durations[stage] += d
}

// Get returns the accumulated duration of a stage.
func (b *Breakdown) Get(stage string) time.Duration { return b.durations[stage] }

// Total returns the sum over all stages.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.durations {
		t += d
	}
	return t
}

// Ratio returns the stage's share of the total in percent (0 when empty).
func (b *Breakdown) Ratio(stage string) float64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	return 100 * float64(b.durations[stage]) / float64(total)
}

// Stages returns the stage names in first-charge order.
func (b *Breakdown) Stages() []string { return append([]string(nil), b.order...) }

// Count adds delta to the named event counter.
func (b *Breakdown) Count(name string, delta int) {
	if _, ok := b.counters[name]; !ok {
		b.counterOrder = append(b.counterOrder, name)
	}
	b.counters[name] += delta
}

// Counter returns the accumulated count of the named event.
func (b *Breakdown) Counter(name string) int { return b.counters[name] }

// Counters returns the event counter names in first-count order.
func (b *Breakdown) Counters() []string {
	return append([]string(nil), b.counterOrder...)
}

// String renders a Table-VI style row set, followed by any non-zero event
// counters.
func (b *Breakdown) String() string {
	stages := b.Stages()
	sort.Strings(stages)
	s := ""
	for _, st := range stages {
		s += fmt.Sprintf("%-24s %10.3fs %6.2f%%\n", st, b.Get(st).Seconds(), b.Ratio(st))
	}
	s += fmt.Sprintf("%-24s %10.3fs\n", "total", b.Total().Seconds())
	counters := b.Counters()
	sort.Strings(counters)
	for _, c := range counters {
		if n := b.counters[c]; n != 0 {
			s += fmt.Sprintf("%-24s %10d\n", c, n)
		}
	}
	return s
}

// Dims is a W/H/D/Volume row (Table IV).
type Dims struct {
	W, H, D int
}

// Volume returns W×H×D.
func (d Dims) Volume() int { return d.W * d.H * d.D }

// String renders the row.
func (d Dims) String() string {
	return fmt.Sprintf("%d×%d×%d=%d", d.W, d.H, d.D, d.Volume())
}

// Ratio returns v's ratio over base (the paper's "Ratio" columns), or 0
// when base is 0.
func Ratio(v, base int) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / float64(base)
}
