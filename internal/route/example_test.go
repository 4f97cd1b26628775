package route_test

import (
	"context"
	"fmt"
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

// examplePlacement runs the pipeline prefix — decompose, ICM conversion,
// canonical form, modular netlist, bridging, clustering, SA placement —
// that produces the placement the routing example routes.
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

// ExampleRunContext routes the nets of a placed netlist under a
// deadline: RunContext runs the negotiated A* router over the placement.
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
