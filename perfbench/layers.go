package main

import (
	"repro/internal/metrics"
	"repro/tqec"
)

// layers is the per-layer account of traced compiles, read from what the
// library returns: stage times from each Result's Breakdown, sizes and
// counts from its intermediate results, and the benchmark's own spans
// around the calls it makes itself. The parent sums it over a run.
type layers struct {
	Compiles int `json:"compiles"`
	// Busy is the time per layer, summed over compiles and over the
	// concurrently compiled parts of a partitioned one.
	Busy       map[string]float64 `json:"busy"`
	BridgeMaxS float64            `json:"bridge_max_s"`
	ZXBefore   int                `json:"zx_before"`
	ZXAfter    int                `json:"zx_after"`
	ICMCNOTs   int                `json:"icm_cnots"`
	Loops      int                `json:"loops"`
	Merges     int                `json:"merges"`
	Supers     int                `json:"supers"`
	// PlaceAttempts counts SA placements, retries included.
	PlaceAttempts int     `json:"place_attempts"`
	RouteSearchS  float64 `json:"route_search_s"`
	RouteRipupS   float64 `json:"route_ripup_s"`
	Nets          int     `json:"nets"`
	FirstPass     int     `json:"first_pass"`
	FallbackNets  int     `json:"fallback_nets"`
	RipUps        int     `json:"ripups"`
	Seams         int     `json:"seams"`
	// AllocBytes and Mallocs are the runtime.MemStats deltas around the
	// library call.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

// stageLayers maps the library's Breakdown stages onto layer names.
var stageLayers = map[string]string{
	metrics.StageOther:     "preprocess",
	metrics.StageZX:        "zx",
	metrics.StageBridging:  "bridge",
	metrics.StagePlacement: "place",
	metrics.StageRouting:   "route",
}

// addResult accounts one compiled circuit.
func (l *layers) addResult(res *tqec.Result) {
	if l.Busy == nil {
		l.Busy = map[string]float64{}
	}
	l.Compiles++
	b := res.Breakdown
	for stage, name := range stageLayers {
		l.Busy[name] += b.Get(stage).Seconds()
	}
	l.BridgeMaxS = max(l.BridgeMaxS, b.Get(metrics.StageBridging).Seconds())
	l.ZXBefore += b.Counter(metrics.CounterZXGatesBefore)
	l.ZXAfter += b.Counter(metrics.CounterZXGatesAfter)
	l.ICMCNOTs += res.ICM.Stats().CNOTs
	l.Loops += len(res.Netlist.Loops)
	l.Merges += res.Bridging.Merges
	l.Supers += len(res.Clustering.Supers)
	l.PlaceAttempts += res.PlacementAttempts
	rt := res.Routing
	l.RouteSearchS += rt.Stats.Search.Seconds()
	l.RouteRipupS += rt.Stats.RipUp.Seconds()
	l.Nets += len(res.Bridging.Nets)
	l.FirstPass += rt.FirstPassRouted
	l.FallbackNets += len(rt.FallbackNets)
	l.RipUps += rt.RippedUp
}

// addPartitioned accounts a partitioned compile: each compiled part as a
// circuit of its own, plus the cut and the stitching, counted as one
// compile.
func (l *layers) addPartitioned(p *tqec.PartitionedResult) {
	parts := layers{Busy: map[string]float64{}}
	for _, part := range p.Parts {
		if part != nil {
			parts.addResult(part)
		}
	}
	parts.Compiles = 1
	parts.Busy["partition"] = p.Breakdown.Get(metrics.StagePartition).Seconds()
	parts.Busy["stitch"] = p.Breakdown.Get(metrics.StageStitch).Seconds()
	parts.Seams = len(p.Partition.Seams)
	l.add(&parts)
}

// addSpans adds the spans the benchmark timed itself to the busy times.
func (l *layers) addSpans(spans []span) {
	if l.Busy == nil {
		l.Busy = map[string]float64{}
	}
	for _, s := range spans {
		if s.Name != "compile" {
			l.Busy[s.Name] += s.seconds()
		}
	}
}

// add sums o into l.
func (l *layers) add(o *layers) {
	if l.Busy == nil {
		l.Busy = map[string]float64{}
	}
	for k, v := range o.Busy {
		l.Busy[k] += v
	}
	l.Compiles += o.Compiles
	l.BridgeMaxS = max(l.BridgeMaxS, o.BridgeMaxS)
	l.ZXBefore += o.ZXBefore
	l.ZXAfter += o.ZXAfter
	l.ICMCNOTs += o.ICMCNOTs
	l.Loops += o.Loops
	l.Merges += o.Merges
	l.Supers += o.Supers
	l.PlaceAttempts += o.PlaceAttempts
	l.RouteSearchS += o.RouteSearchS
	l.RouteRipupS += o.RouteRipupS
	l.Nets += o.Nets
	l.FirstPass += o.FirstPass
	l.FallbackNets += o.FallbackNets
	l.RipUps += o.RipUps
	l.Seams += o.Seams
	l.AllocBytes += o.AllocBytes
	l.Mallocs += o.Mallocs
}
