package bridge

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/canonical"
	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/modular"
	"repro/internal/qc"
)

func netlistFor(t testing.TB, c *qc.Circuit) *modular.Netlist {
	t.Helper()
	r, err := decompose.Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := icm.FromDecomposed(r.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	d, err := canonical.Build(ic)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := modular.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// chainCircuit: consecutive CNOTs share lines at adjacent slots, producing
// common modules so bridging has work to do.
func chainCircuit(n int) *qc.Circuit {
	c := qc.New("chain", n+1)
	for i := 0; i < n; i++ {
		c.Append(qc.CNOT(i, i+1))
	}
	return c
}

func TestBridgingMergesAdjacentLoops(t *testing.T) {
	nl := netlistFor(t, chainCircuit(3))
	r, err := Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Merges == 0 {
		t.Fatal("adjacent loops share modules; at least one merge expected")
	}
	if len(r.Structures) >= len(nl.Loops) {
		t.Fatalf("structures %d should be fewer than loops %d", len(r.Structures), len(nl.Loops))
	}
	if r.RemovedSegments == 0 {
		t.Fatal("merging must remove shared dual segments")
	}
}

func TestNoBridgingAblation(t *testing.T) {
	nl := netlistFor(t, chainCircuit(3))
	r, err := Run(nl, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Merges != 0 || r.RemovedSegments != 0 {
		t.Fatal("disabled bridging must not merge")
	}
	if len(r.Structures) != len(nl.Loops) {
		t.Fatalf("structures %d want %d (one per loop)", len(r.Structures), len(nl.Loops))
	}
	// Unbridged: each loop contributes one net per penetrated module.
	want := 0
	for _, l := range nl.Loops {
		want += len(l.Modules)
	}
	if len(r.Nets) != want {
		t.Fatalf("nets %d want %d", len(r.Nets), want)
	}
}

func TestBridgingReducesNets(t *testing.T) {
	// Two CNOTs between the same line pair at adjacent slots: the loops
	// share two common modules, so the bridge path absorbs the
	// inter-module connections into a shared chain and the net count
	// drops (the mechanism behind the paper's Fig. 10 compression).
	parallel := func() *qc.Circuit {
		c := qc.New("parallel", 2)
		c.Append(qc.CNOT(0, 1), qc.CNOT(0, 1))
		return c
	}
	without, err := Run(netlistFor(t, parallel()), false)
	if err != nil {
		t.Fatal(err)
	}
	with, err := Run(netlistFor(t, parallel()), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(without.Nets) != 4 {
		t.Fatalf("unbridged nets: %d want 4", len(without.Nets))
	}
	if with.Merges != 1 {
		t.Fatalf("merges: %d want 1", with.Merges)
	}
	if len(with.Nets) >= len(without.Nets) {
		t.Fatalf("bridging should reduce nets: %d vs %d", len(with.Nets), len(without.Nets))
	}
}

func TestDisjointLoopsStaySeparate(t *testing.T) {
	// Two CNOTs on disjoint line sets, far apart: no common modules.
	c := qc.New("disjoint", 4)
	c.Append(qc.CNOT(0, 1), qc.CNOT(2, 3))
	nl := netlistFor(t, c)
	r, err := Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Merges != 0 {
		t.Fatal("disjoint loops must not merge")
	}
	if len(r.Structures) != 2 {
		t.Fatalf("structures: %d want 2", len(r.Structures))
	}
}

func TestFriendGroupsAfterBridging(t *testing.T) {
	nl := netlistFor(t, chainCircuit(4))
	r, err := Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Merges > 0 && len(r.FriendGroups()) == 0 {
		t.Fatal("bridged structures should produce friend nets (shared pins)")
	}
	for pin, nets := range r.FriendGroups() {
		if len(nets) < 2 {
			t.Fatalf("friend group at pin %d has %d nets", pin, len(nets))
		}
	}
}

func TestNoFriendNetsWithoutBridging(t *testing.T) {
	nl := netlistFor(t, chainCircuit(4))
	r, err := Run(nl, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FriendGroups()) != 0 {
		t.Fatal("friend nets require shared chains, which require bridging")
	}
}

func TestNetsAreDeduplicated(t *testing.T) {
	nl := netlistFor(t, chainCircuit(5))
	r, err := Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for _, n := range r.Nets {
		k := pairKey(n.PinA, n.PinB)
		if seen[k] {
			t.Fatalf("duplicate net %v", k)
		}
		seen[k] = true
		if n.PinA == n.PinB {
			t.Fatalf("degenerate net at pin %d", n.PinA)
		}
	}
}

func TestEveryModuleKeepsALiveSegment(t *testing.T) {
	nl := netlistFor(t, chainCircuit(6))
	r, err := Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range nl.Modules {
		if len(r.NL.LiveSegmentsOf(m.ID)) == 0 {
			t.Fatalf("module %d lost all segments", m.ID)
		}
	}
}

func TestChainsArePinDisjointPerLoop(t *testing.T) {
	nl := netlistFor(t, chainCircuit(6))
	r, err := Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	for lp, chains := range r.Chains {
		used := map[int]bool{}
		for _, c := range chains {
			if len(c.Pins) < 2 {
				t.Fatalf("loop %d has a degenerate chain", lp)
			}
			for _, p := range c.Pins {
				if used[p] {
					t.Fatalf("loop %d: pin %d in two chains", lp, p)
				}
				used[p] = true
			}
		}
	}
}

func TestRepresentativeSegmentsStayLive(t *testing.T) {
	nl := netlistFor(t, chainCircuit(6))
	r, err := Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range r.Structures {
		for m, seg := range st.RepSeg {
			if nl.Segments[seg].Removed {
				t.Fatalf("structure %d: representative segment %d of module %d removed",
					st.ID, seg, m)
			}
		}
	}
}

func TestSearchPathOrdering(t *testing.T) {
	// Hand-built graph: 0-1-2-3 line; criticals (0,1,2,3) reachable in
	// order, but (0,1,3,2) is not a simple ordered path.
	g := &bridgeGraph{
		vertices:    map[int]bool{0: true, 1: true, 2: true, 3: true},
		adj:         map[int][]int{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}},
		consecutive: map[[2]int]bool{},
	}
	search := func(criticals []int) []int {
		p, err := searchPath(context.Background(), g, criticals)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if p := search([]int{0, 1, 2, 3}); p == nil {
		t.Fatal("ordered path should exist")
	}
	if p := search([]int{0, 1, 3, 2}); p != nil {
		t.Fatalf("out-of-order criticals should fail, got %v", p)
	}
	// Intermediate non-critical vertices are allowed.
	if p := search([]int{0, 2}); p == nil || len(p) != 3 {
		t.Fatalf("path through non-critical vertex: %v", p)
	}
}

func TestModuleOrders(t *testing.T) {
	if got := moduleOrders([]int{7}); len(got) != 1 {
		t.Fatalf("single module orders: %v", got)
	}
	if got := moduleOrders([]int{1, 2, 3}); len(got) != 6 {
		t.Fatalf("3 modules should give 6 permutations, got %d", len(got))
	}
	if got := moduleOrders([]int{1, 2, 3, 4, 5}); len(got) != 2 {
		t.Fatalf("5 modules should fall back to 2 orders, got %d", len(got))
	}
}

func TestBenchmarkScaleBridging(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	nl := netlistFor(t, mustGen(t, spec))
	r, err := Run(nl, true)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Merges == 0 {
		t.Fatal("benchmark-scale circuit should bridge")
	}
	if s.Structures+s.Merges != len(nl.Loops) {
		t.Fatalf("structures %d + merges %d != loops %d", s.Structures, s.Merges, len(nl.Loops))
	}
	t.Logf("%s: %d loops → %d structures (%d merges), %d nets, %d segments removed",
		spec.Name, len(nl.Loops), s.Structures, s.Merges, s.Nets, s.RemovedSegments)
}

// Property: bridging on any generated circuit preserves the structural
// invariants: structures partition loops, removed segments stay in
// common modules only, every net references valid pins, and chain sets
// remain pin-disjoint per loop.
func TestQuickBridgingInvariants(t *testing.T) {
	f := func(q uint8, nt uint8, seed int64) bool {
		spec := qc.BenchmarkSpec{
			Name:     "fuzz",
			Qubits:   3 + int(q%8),
			Toffolis: 1 + int(nt%4),
			Seed:     seed,
		}
		r, err := decompose.Decompose(mustGen(t, spec))
		if err != nil {
			return false
		}
		ic, err := icm.FromDecomposed(r.Circuit)
		if err != nil {
			return false
		}
		d, err := canonical.Build(ic)
		if err != nil {
			return false
		}
		nl, err := modular.Build(d)
		if err != nil {
			return false
		}
		br, err := Run(nl, true)
		if err != nil {
			return false
		}
		// Partition check.
		seen := map[int]bool{}
		total := 0
		for _, st := range br.Structures {
			for _, lp := range st.Loops {
				if seen[lp] {
					return false
				}
				seen[lp] = true
				total++
			}
		}
		if total != len(nl.Loops) {
			return false
		}
		// Net pin validity.
		for _, n := range br.Nets {
			if n.PinA < 0 || n.PinA >= len(nl.Pins) || n.PinB < 0 || n.PinB >= len(nl.Pins) {
				return false
			}
		}
		// Module liveness.
		for _, m := range nl.Modules {
			if len(nl.LiveSegmentsOf(m.ID)) == 0 {
				return false
			}
		}
		// Per-loop chain pin disjointness.
		for _, chains := range br.Chains {
			used := map[int]bool{}
			for _, c := range chains {
				for _, p := range c.Pins {
					if used[p] {
						return false
					}
					used[p] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// mustGen generates a benchmark circuit, failing the test on error.
func mustGen(tb testing.TB, spec qc.BenchmarkSpec) *qc.Circuit {
	tb.Helper()
	c, err := spec.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}
