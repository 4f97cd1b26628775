package route_test

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/modular"
	"repro/internal/place"
	"repro/internal/qc"
	"repro/internal/route"
)

// ExampleRunContext routes the nets of a placed netlist under a
// deadline. The pipeline prefix — decompose, ICM conversion, canonical
// form, modular netlist, bridging, clustering, SA placement — produces
// the placement; RunContext then runs the negotiated A* router over it.
// Unless Options.Serial is set, nets whose search regions are disjoint
// are searched concurrently, with results committed in net order, so the
// outcome is identical to a serial run.
// examplePlacement runs the pipeline prefix — decompose, ICM conversion,
// canonical form, modular netlist, bridging, clustering, SA placement —
// shared by the routing examples.
func examplePlacement() *place.Placement {
	c := qc.New("chain", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2))

	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	d, err := decompose.Decompose(c)
	must(err)
	ic, err := icm.FromDecomposed(d.Circuit)
	must(err)
	cf, err := canonical.Build(ic)
	must(err)
	nl, err := modular.Build(cf)
	must(err)
	br, err := bridge.Run(nl, true)
	must(err)
	cl, err := cluster.Build(nl, cluster.DefaultOptions())
	must(err)
	po := place.DefaultOptions()
	po.Seed = 7
	po.Iterations = 300
	pl, err := place.Run(cl, br.Nets, po)
	must(err)
	return pl
}

func ExampleRunContext() {
	pl := examplePlacement()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := route.RunContext(ctx, pl, route.DefaultOptions())
	if err != nil {
		panic(err)
	}

	fmt.Println("all nets routed:", len(res.Routes) == len(pl.Nets))
	fmt.Println("degraded:", res.Degraded)
	fmt.Println("legal:", route.Verify(pl, res) == nil)
	// Output:
	// all nets routed: true
	// degraded: false
	// legal: true
}

// ExampleOptions demonstrates the scheduler knob: the batched first pass
// (the default; Serial disables it) co-schedules nets whose search
// regions are disjoint under a conflict-graph coloring and commits them in
// net order, so every net routes through exactly the cells the serial pass
// gives it — only the wall-clock differs.
func ExampleOptions() {
	pl := examplePlacement()

	batched := route.DefaultOptions()
	serial := batched
	serial.Serial = true

	a, err := route.Run(pl, batched)
	if err != nil {
		panic(err)
	}
	b, err := route.Run(pl, serial)
	if err != nil {
		panic(err)
	}

	same := len(a.Routes) == len(b.Routes)
	for id, p := range a.Routes {
		same = same && slices.Equal(p, b.Routes[id])
	}
	fmt.Println("batched matches serial:", same)
	// Output:
	// batched matches serial: true
}
