package route

import (
	"context"
	"fmt"

	"repro/internal/bridge"
	"repro/internal/faults"
	"repro/internal/geom"
)

// SeamNet is a two-terminal net between explicit lattice cells, used by
// the partitioned compiler to stitch sub-circuit slabs: each seam CNOT
// cut by the qubit partitioner becomes one net whose endpoints sit on the
// boundary faces of the two slabs it connects. ID is the caller's label
// (the seam index) and is echoed in diagnostics; results are keyed by the
// net's position in the slice passed to RouteSeams.
type SeamNet struct {
	ID   int
	A, B geom.Point
}

// RouteSeams routes point-to-point nets through the free space around a
// set of obstacle boxes using the same negotiated-A* machinery as the
// placement router (rip-up and re-route, congestion history, degradation
// fallback). Unlike RunContext it needs no placement: obstacles are given
// as explicit boxes (the partitioned compiler passes each slab's
// translated routing bounds) and pins as explicit cells, which must be
// unique and outside every obstacle — there is no rehoming. base is the
// extent the result's Bounds must cover even if no route leaves it (the
// union of all slabs).
//
// Friend-net deformation is forced off: seam pins are pairwise distinct,
// so every net is a plain two-terminal route. The result is deterministic
// for identical inputs and options.
func RouteSeams(ctx context.Context, obstacles []geom.Box, nets []SeamNet, base geom.Box, opts Options) (*Result, error) {
	opts.FriendNets = false
	if err := faults.Canceled(ctx); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	bnets := make([]bridge.Net, len(nets))
	for i := range nets {
		bnets[i] = bridge.Net{ID: i, PinA: 2 * i, PinB: 2*i + 1}
	}
	r := newRouter(ctx, nil, bnets, opts)
	if err := r.buildSeams(obstacles, nets, base); err != nil {
		return nil, err
	}
	r.route()
	if r.ctxErr != nil {
		return nil, fmt.Errorf("route: %w", r.ctxErr)
	}
	r.finish()
	return r.result, nil
}

// buildSeams is the placement-free analogue of build: obstacles land in
// the grid verbatim, and pin cells are taken as given (erroring instead of
// rehoming when a pin collides with an obstacle or another pin, since seam
// pins are chosen by the stitcher on planes it knows to be free).
func (r *router) buildSeams(obstacles []geom.Box, nets []SeamNet, base geom.Box) error {
	staticCells := map[geom.Point]bool{}
	for _, b := range obstacles {
		if b.Volume() > 0 {
			addObstacle(b, staticCells)
		}
	}
	cellPin := map[geom.Point]int{}
	for i, sn := range nets {
		for _, end := range []struct {
			pin int
			c   geom.Point
		}{{2 * i, sn.A}, {2*i + 1, sn.B}} {
			if staticCells[end.c] {
				return fmt.Errorf("route: seam %d: pin cell %v inside an obstacle", sn.ID, end.c)
			}
			if prev, taken := cellPin[end.c]; taken {
				return fmt.Errorf("route: seam %d: pin cell %v already used by seam %d", sn.ID, end.c, nets[prev/2].ID)
			}
			r.pinCell[end.pin] = end.c
			cellPin[end.c] = end.pin
		}
		r.friends[2*i] = append(r.friends[2*i], i)
		r.friends[2*i+1] = append(r.friends[2*i+1], i)
	}
	r.base = base
	for _, b := range obstacles {
		r.base = r.base.Union(b)
	}
	r.buildGrid(staticCells, cellPin)
	return nil
}

// VerifySeams checks a RouteSeams result: every net routed (none failed
// or fallback-degraded), every path connected, endpoint-anchored at its
// net's two pin cells, collision-free against the obstacle boxes, and
// cell-disjoint from every other path (seam nets share no pins, so no
// friend-sharing exemption applies). Structural violations are reported
// first; a structurally sound but incomplete routing fails with an error
// wrapping faults.ErrUnroutable, and a degraded one with
// faults.ErrDegraded.
func VerifySeams(obstacles []geom.Box, nets []SeamNet, res *Result) error {
	owner := map[geom.Point]int{}
	for i, sn := range nets {
		path, ok := res.Routes[i]
		if !ok {
			continue // reported below via res.Failed
		}
		if len(path) == 0 || !path.Valid() {
			return fmt.Errorf("route: seam %d path disconnected", sn.ID)
		}
		head, tail := path[0], path[len(path)-1]
		if !(head == sn.A && tail == sn.B) && !(head == sn.B && tail == sn.A) {
			return fmt.Errorf("route: seam %d terminals %v..%v, want %v..%v", sn.ID, head, tail, sn.A, sn.B)
		}
		for _, c := range path {
			for _, b := range obstacles {
				if b.Contains(c) {
					return fmt.Errorf("route: seam %d cell %v pierces a slab obstacle", sn.ID, c)
				}
			}
			if prev, used := owner[c]; used {
				return fmt.Errorf("route: seams %d and %d overlap at %v", nets[prev].ID, sn.ID, c)
			}
			owner[c] = i
		}
	}
	if len(res.Failed) > 0 {
		return fmt.Errorf("route: %w: %d seams unrouted: %v", faults.ErrUnroutable, len(res.Failed), res.Failed)
	}
	if res.Degraded || len(res.FallbackNets) > 0 {
		return fmt.Errorf("route: %w: %d fallback-routed seams: %v",
			faults.ErrDegraded, len(res.FallbackNets), res.FallbackNets)
	}
	return nil
}
