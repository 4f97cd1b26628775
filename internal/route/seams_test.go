package route

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
)

// seamFixture builds two slab obstacles separated by a gap along X, with
// seam pins on the z=-1 plane just outside each slab's facing boundary —
// the exact geometry the partitioned compiler's stitcher produces.
func seamFixture() (obstacles []geom.Box, nets []SeamNet, base geom.Box) {
	slabA := geom.Box{Min: geom.Pt(0, 0, 0), Max: geom.Pt(6, 5, 4)}
	slabB := geom.Box{Min: geom.Pt(10, 0, 0), Max: geom.Pt(16, 5, 4)}
	obstacles = []geom.Box{slabA, slabB}
	nets = []SeamNet{
		{ID: 0, A: geom.Pt(6, 0, -1), B: geom.Pt(9, 0, -1)},
		{ID: 1, A: geom.Pt(6, 1, -1), B: geom.Pt(9, 1, -1)},
		{ID: 2, A: geom.Pt(6, 2, -1), B: geom.Pt(9, 2, -1)},
	}
	base = slabA.Union(slabB)
	return obstacles, nets, base
}

func TestRouteSeamsBetweenSlabs(t *testing.T) {
	obstacles, nets, base := seamFixture()
	res, err := RouteSeams(context.Background(), obstacles, nets, base, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySeams(obstacles, nets, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != len(nets) {
		t.Fatalf("routed %d of %d seams", len(res.Routes), len(nets))
	}
	// The result bounds must cover both slabs even where no route went.
	if !reflect.DeepEqual(res.Bounds.Union(base), res.Bounds) {
		t.Fatalf("bounds %v do not cover the slab base %v", res.Bounds, base)
	}
}

func TestRouteSeamsDeterministic(t *testing.T) {
	obstacles, nets, base := seamFixture()
	a, err := RouteSeams(context.Background(), obstacles, nets, base, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RouteSeams(context.Background(), obstacles, nets, base, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Routes, b.Routes) {
		t.Fatal("seam routing is not deterministic for identical inputs")
	}
}

func TestRouteSeamsRejectsBadPins(t *testing.T) {
	obstacles, _, base := seamFixture()
	inObstacle := []SeamNet{{ID: 7, A: geom.Pt(1, 1, 1), B: geom.Pt(9, 0, -1)}}
	if _, err := RouteSeams(context.Background(), obstacles, inObstacle, base, DefaultOptions()); err == nil {
		t.Fatal("pin inside a slab accepted")
	}
	shared := []SeamNet{
		{ID: 0, A: geom.Pt(6, 0, -1), B: geom.Pt(9, 0, -1)},
		{ID: 1, A: geom.Pt(6, 0, -1), B: geom.Pt(9, 1, -1)},
	}
	if _, err := RouteSeams(context.Background(), obstacles, shared, base, DefaultOptions()); err == nil {
		t.Fatal("duplicate pin cell accepted")
	}
}

func TestVerifySeamsCatchesTampering(t *testing.T) {
	obstacles, nets, base := seamFixture()
	res, err := RouteSeams(context.Background(), obstacles, nets, base, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// want is a substring of the expected error; "" accepts any.
		want   string
		tamper func(geom.Path) geom.Path
	}{
		// Shift one path's terminal off its pin.
		{"terminal", "", func(p geom.Path) geom.Path {
			p[0] = p[0].Add(geom.Pt(0, 0, -1))
			return p
		}},
		// Keep seam 0's pins but detour through slab A's corner cell
		// (5,0,0) on the way.
		{"slab", "pierces a slab obstacle", func(geom.Path) geom.Path {
			return geom.Path{
				geom.Pt(6, 0, -1), geom.Pt(5, 0, -1), geom.Pt(5, 0, 0), geom.Pt(6, 0, 0),
				geom.Pt(7, 0, 0), geom.Pt(8, 0, 0), geom.Pt(9, 0, 0), geom.Pt(9, 0, -1),
			}
		}},
	} {
		orig := res.Routes[0]
		res.Routes[0] = tc.tamper(append(geom.Path{}, orig...))
		err := VerifySeams(obstacles, nets, res)
		res.Routes[0] = orig
		if err == nil {
			t.Errorf("%s: tampered seam passed verification", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}
