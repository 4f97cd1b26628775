// Package dtsink is the sink half of the cross-package dettaint fixture:
// every tainted value here was produced in the sibling taintsrc package,
// so each finding proves a flow that crossed a package boundary through
// the function-summary layer.
package dtsink

import (
	"sort"
	"time"

	"repro/internal/dttest/taintsrc"
	"repro/internal/metrics"
	"repro/internal/qc"
	"repro/internal/server"
	"repro/tqec"
)

// direct consumes a tainted result from another package.
func direct() tqec.Result {
	var r tqec.Result
	r.Volume = taintsrc.Stamp() // want `wall-clock time\.Now \(via taintsrc\.Stamp\).* reaches tqec\.Result\.Volume`
	return r
}

// viaParamFlow threads the taint through a pass-through helper before it
// lands in a composite literal.
func viaParamFlow() tqec.Result {
	v := taintsrc.Echo(taintsrc.Stamp())
	return tqec.Result{PlacementAttempts: v} // want `reaches tqec\.Result\.PlacementAttempts`
}

// cacheKey taints the options struct and feeds it to the content-address
// sink.
func cacheKey(c *qc.Circuit) (string, error) {
	opts := tqec.Options{}
	opts.Place.Iterations = taintsrc.Stamp() % 4
	return tqec.CacheKey(c, opts) // want `reaches tqec\.CacheKey content address`
}

// partitionedPayload names a partitioned payload after the wall clock.
func partitionedPayload(pres *tqec.PartitionedResult) ([]byte, error) {
	return server.EncodePartitionedResult("key", taintsrc.Label(), 4, pres) // want `wall-clock time\.Now \(via taintsrc\.Label.* reaches served partitioned payload \(EncodePartitionedResult\)`
}

// mapOrder lets map-iteration order reach a Result field.
func mapOrder(m map[string]int) tqec.Result {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	var r tqec.Result
	r.Degraded = names[0] == "x" // want `map-iteration order.* reaches tqec\.Result\.Degraded`
	return r
}

// mapOrderSorted is the fixed twin of mapOrder: sorting launders the
// order-dependence, so no finding.
func mapOrderSorted(m map[string]int) tqec.Result {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var r tqec.Result
	r.Degraded = names[0] == "x"
	return r
}

// breakdownOK writes wall-clock durations into Result.Breakdown's stage
// timings, which no payload serves, so no finding.
func breakdownOK(r *tqec.Result, start time.Time) ([]byte, error) {
	r.Breakdown.Add("stage", time.Since(start))
	return server.EncodeResult("k", r)
}

// breakdownCount feeds the wall clock into a Breakdown event counter.
// EncodeResult serves the counters, so the whole Result is tainted.
func breakdownCount(res *tqec.Result) ([]byte, error) {
	res.Breakdown.Count("started", int(time.Now().Unix()))
	return server.EncodeResult("k", res) // want `wall-clock time\.Now.* reaches served compile payload \(EncodeResult\)`
}

// timedStage holds a deterministic volume next to a latency histogram.
type timedStage struct {
	volume  int
	latency *metrics.Histogram
}

// histogramObserve keeps a wall-clock latency inside the histogram, so
// the holder stays clean and its volume may reach a Result field.
func histogramObserve(st *timedStage, start time.Time) tqec.Result {
	st.latency.Observe(time.Since(start))
	return tqec.Result{Volume: st.volume}
}

// histogramSnapshot reads the latencies back out: a snapshot is a
// wall-clock source.
func histogramSnapshot(st *timedStage) tqec.Result {
	snap := st.latency.Snapshot()
	return tqec.Result{Volume: int(snap.SumNS)} // want `wall-clock histogram snapshot.* reaches tqec\.Result\.Volume`
}

// cleanFlow consumes a deterministic cross-package helper; no finding.
func cleanFlow() tqec.Result {
	var r tqec.Result
	r.Volume = taintsrc.Echo(taintsrc.Clean())
	return r
}
