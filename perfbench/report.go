package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	// note says how the value was taken (percentile, sample count).
	note string
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	// endToEnd are reported by untraced runs, perLayer by traced ones.
	endToEnd, perLayer []metric
	// notes are further lines for the reader, printed before the metrics.
	notes []string
	spans spanLog
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.notef("failed: "+format, args...)
}

// print writes the notes, one line per metric, and as the last line the
// JSON summary: correct, attempted, failed and the metrics by name.
func (r *result) print(w io.Writer, traced bool) error {
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	if traced {
		// Against an untraced run of the same seed, these give the
		// tracing overhead.
		for _, m := range r.endToEnd {
			fmt.Fprintf(w, "traced %s = %.6g %s\n", m.name, m.value, m.unit)
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range ms {
		fmt.Fprintf(w, "%-26s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// endToEndMetrics are a run's end-to-end metrics: the median set-up time,
// the median and tail latency (see tailPercent), the volume and
// compression geomeans over its distinct circuits, and a peak resident
// set, rssMB, taken as rssNote says.
func endToEndMetrics(setups, lat, vols, comps []float64, rssMB float64, rssNote string) []metric {
	n := fmt.Sprintf("n=%d", len(lat))
	p := tailPercent(len(lat))
	return []metric{
		{"setup_s", "s", quantile(setups, 0.5), fmt.Sprintf("median of %d set-ups", len(setups))},
		{"latency_p50_s", "s", quantile(lat, 0.5), n},
		{"latency_tail_s", "s", quantile(lat, float64(p)/100), fmt.Sprintf("p%d, %s", p, n)},
		{"volume_geomean", "cells", geomean(vols), fmt.Sprintf("n=%d distinct circuits", len(vols))},
		{"compression_geomean", "ratio", geomean(comps), "(canonical + box volume) / volume"},
		{"peak_rss_mb", "MB", rssMB, rssNote},
	}
}

// tailPercent is the tail percentile of n samples: the highest of p90,
// p85, p80 and p75 that leaves at least ten samples beyond it, or p75
// below 40 samples. Higher percentiles of thousands of cache hits moved by
// a third between runs on a shared 2-CPU machine, so p90 is the ceiling.
func tailPercent(n int) int {
	for _, p := range []int{90, 85, 80} {
		if n*(100-p) >= 1000 {
			return p
		}
	}
	return 75
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics are the per-layer metrics of a traced run, the same list on
// every workload.
func layerMetrics(l *layers) []metric {
	b := func(name string) float64 { return l.Busy[name] }
	n := fmt.Sprintf("over %d compiles", l.Compiles)
	return []metric{
		{"preprocess.busy_s", "s", b("preprocess"), "decompose, ICM, canonical form, modularization"},
		{"zx.busy_s", "s", b("zx"), n},
		{"zx.gate_ratio", "ratio", ratio(float64(l.ZXAfter), float64(l.ZXBefore)), "gates after / before"},
		{"icm.cnots", "count", float64(l.ICMCNOTs), n},
		{"modular.loops", "count", float64(l.Loops), n},
		{"bridge.busy_s", "s", b("bridge"), n},
		{"bridge.max_call_s", "s", l.BridgeMaxS, "slowest bridging stage"},
		{"bridge.merges", "count", float64(l.Merges), n},
		{"cluster.supers", "count", float64(l.Supers), n},
		{"place.busy_s", "s", b("place"), "clustering and SA placement, retries included"},
		{"place.attempts", "count", float64(l.PlaceAttempts), n},
		{"route.busy_s", "s", b("route"), n},
		{"route.search_s", "s", l.RouteSearchS, "Routing.Stats.Search"},
		{"route.first_pass_ratio", "ratio", ratio(float64(l.FirstPass), float64(l.Nets)), "first-pass routed / nets"},
		{"route.fallback_nets", "count", float64(l.FallbackNets), n},
		{"route.ripups", "count", float64(l.RipUps), n},
		{"partition.seams", "count", float64(l.Seams), "0 unless the workload partitions"},
		{"compile.alloc_mb", "MB", float64(l.AllocBytes) / (1 << 20), "TotalAlloc delta around the library call"},
		{"compile.allocs", "count", float64(l.Mallocs), "Mallocs delta around the library call"},
		{"cachekey.busy_s", "s", b("cachekey"), "tqec.CacheKey"},
		{"encode.busy_s", "s", b("encode"), "server.EncodeResult"},
		{"verify.busy_s", "s", b("verify"), "the benchmark's own checks, outside every timed compile"},
		{"trace.compiles", "count", float64(l.Compiles), "traced compiles"},
	}
}

// layerNotes are the layer times that only some workloads have.
func layerNotes(r *result, l *layers) {
	r.notef("route.ripup_s = %.6g s (Routing.Stats.RipUp)", l.RouteRipupS)
	r.notef("partition.busy_s = %.6g s, stitch.busy_s = %.6g s (0 unless the workload partitions)", l.Busy["partition"], l.Busy["stitch"])
}
