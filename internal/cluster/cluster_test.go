package cluster

import (
	"testing"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/decompose"
	"repro/internal/distill"
	"repro/internal/icm"
	"repro/internal/modular"
	"repro/internal/qc"
)

func netlistFor(t testing.TB, c *qc.Circuit, bridged bool) *modular.Netlist {
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
	if _, err := bridge.Run(nl, bridged); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestSingleTGate(t *testing.T) {
	c := qc.New("t", 1)
	c.Append(qc.T(0))
	nl := netlistFor(t, c, false)
	cl, err := Build(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.TimeDep != 1 {
		t.Fatalf("time-dependent supers: %d want 1", st.TimeDep)
	}
	// The T block's |A⟩ and |Y⟩ injections coincide with teleport
	// modules, so their boxes are embedded in the time-dependent super.
	var td *Super
	for i := range cl.Supers {
		if cl.Supers[i].Kind == KindTimeDep {
			td = &cl.Supers[i]
		}
	}
	if len(td.Members) != 5 {
		t.Fatalf("T super members: %d want 5", len(td.Members))
	}
	if len(td.Boxes) != 2 {
		t.Fatalf("T super boxes: %d want 2 (one |A⟩, one |Y⟩)", len(td.Boxes))
	}
	var haveY, haveA bool
	for _, b := range td.Boxes {
		if b.Kind == BoxY {
			haveY = true
		}
		if b.Kind == BoxA {
			haveA = true
		}
	}
	if !haveY || !haveA {
		t.Fatal("T super should embed one Y and one A box")
	}
	if len(cl.TSLs[0]) != 1 {
		t.Fatalf("TSL: %v", cl.TSLs)
	}
}

func TestZModuleLeftOfTeleports(t *testing.T) {
	c := qc.New("t", 1)
	c.Append(qc.T(0))
	nl := netlistFor(t, c, false)
	cl, err := Build(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cl.Supers {
		if s.Kind != KindTimeDep {
			continue
		}
		zRight := s.Offsets[0].X + ModuleSize(nl, s.Members[0]).X
		for i := 1; i < len(s.Members); i++ {
			if s.Offsets[i].X < zRight {
				t.Fatalf("teleport module %d at x=%d not right of Z module (right edge %d)",
					s.Members[i], s.Offsets[i].X, zRight)
			}
			// Every teleport measurement must end after the Z module
			// ends (the time-ordered measurement constraint).
			sz := ModuleSize(nl, s.Members[i])
			if s.Offsets[i].X+sz.X < zRight {
				t.Fatalf("teleport module %d ends before Z module", s.Members[i])
			}
		}
	}
}

func TestDistillInjForPGate(t *testing.T) {
	c := qc.New("p", 1)
	c.Append(qc.P(0), qc.CNOT(0, 0)) // second gate invalid; drop it
	c.Gates = c.Gates[:1]
	// A single P gate has one CNOT, so the injection line has a module.
	nl := netlistFor(t, c, false)
	cl, err := Build(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.DistillInj != 1 {
		t.Fatalf("distill-injection supers: %d want 1", st.DistillInj)
	}
	for _, s := range cl.Supers {
		if s.Kind != KindDistillInj {
			continue
		}
		if len(s.Boxes) != 1 || s.Boxes[0].Kind != BoxY {
			t.Fatalf("P injection should get a Y box: %+v", s.Boxes)
		}
		// Box strictly left of the module (state must be ready before
		// injection).
		boxRight := s.Boxes[0].Offset.X + s.Boxes[0].Kind.Size().X
		if s.Offsets[0].X < boxRight {
			t.Fatal("box must precede injected module in time")
		}
	}
}

func TestPrimalGroupsReduceNodes(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	nlA := netlistFor(t, mustGen(t, spec), true)
	with, err := Build(nlA, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nlB := netlistFor(t, mustGen(t, spec), true)
	without, err := Build(nlB, Options{PrimalGroups: false})
	if err != nil {
		t.Fatal(err)
	}
	if with.Stats().Nodes >= without.Stats().Nodes {
		t.Fatalf("primal groups should reduce nodes: %d vs %d",
			with.Stats().Nodes, without.Stats().Nodes)
	}
	t.Logf("%s: nodes %d (journal) vs %d (conference), modules %d",
		spec.Name, with.Stats().Nodes, without.Stats().Nodes, len(nlA.Modules))
}

func TestEveryModuleAssignedOnce(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	nl := netlistFor(t, mustGen(t, spec), true)
	cl, err := Build(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(nl.Modules))
	for _, s := range cl.Supers {
		for _, m := range s.Members {
			counts[m]++
		}
	}
	for m, n := range counts {
		if n != 1 {
			t.Fatalf("module %d in %d supers", m, n)
		}
	}
}

func TestTSLOrdering(t *testing.T) {
	c := qc.New("tt", 1)
	c.Append(qc.T(0), qc.T(0), qc.T(0))
	nl := netlistFor(t, c, false)
	cl, err := Build(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.TSLs[0]) != 3 {
		t.Fatalf("TSL length: %d want 3", len(cl.TSLs[0]))
	}
	for k, id := range cl.TSLs[0] {
		if cl.Supers[id].Seq != k {
			t.Fatalf("TSL[%d] has Seq %d", k, cl.Supers[id].Seq)
		}
	}
}

func TestModuleSizeTracksLiveSegments(t *testing.T) {
	c := qc.New("sz", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2))
	nl := netlistFor(t, c, false)
	m := nl.ModulesOfLine[1][0] // two segments
	if got := ModuleSize(nl, m); got.X != 3 || got.Y != 3 || got.Z != 2 {
		t.Fatalf("size with 2 segments: %v", got)
	}
	nl.Segments[nl.Modules[m].Segments[0]].Removed = true
	if got := ModuleSize(nl, m); got.X != 2 {
		t.Fatalf("size with 1 live segment: %v", got)
	}
}

func TestPinOffset(t *testing.T) {
	c := qc.New("pin", 2)
	c.Append(qc.CNOT(0, 1))
	nl := netlistFor(t, c, false)
	cl, err := Build(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seg := nl.Segments[0]
	lo, err := cl.PinOffset(seg.Pins[0])
	if err != nil {
		t.Fatal(err)
	}
	hi, err := cl.PinOffset(seg.Pins[1])
	if err != nil {
		t.Fatal(err)
	}
	if lo.Z != -1 || hi.Z != 2 {
		t.Fatalf("pin z offsets: %v %v", lo, hi)
	}
	if lo.X != hi.X || lo.Y != hi.Y {
		t.Fatal("the two pins of a segment share x/y")
	}
	// Removed segments have no pins.
	nl.Segments[0].Removed = true
	if _, err := cl.PinOffset(seg.Pins[0]); err == nil {
		t.Fatal("pin of removed segment should error")
	}
}

func TestBoxSizes(t *testing.T) {
	if BoxY.Size() != distill.YBoxSize || BoxA.Size() != distill.ABoxSize {
		t.Fatal("box sizes must match distill package")
	}
}

func TestConferenceVsJournalAtScale(t *testing.T) {
	// Table I's #Nodes column: the journal version roughly halves the
	// node count relative to per-module placement.
	spec, err := qc.BenchmarkByName("4gt4-v0_73")
	if err != nil {
		t.Fatal(err)
	}
	nl := netlistFor(t, mustGen(t, spec), true)
	cl, err := Build(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nodes := cl.Stats().Nodes
	modules := len(nl.Modules)
	if nodes >= modules {
		t.Fatalf("clustering should reduce problem size: %d nodes for %d modules", nodes, modules)
	}
	t.Logf("%s: %d modules → %d nodes (%.0f%%)", spec.Name, modules, nodes,
		100*float64(nodes)/float64(modules))
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
