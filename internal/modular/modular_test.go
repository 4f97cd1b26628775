package modular

import (
	"testing"
	"testing/quick"

	"repro/internal/canonical"
	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/qc"
)

// threeCNOT builds the paper's motivating 3-CNOT ICM circuit (Fig. 4/9):
// CNOTs (0,1), (1,2), (0,2) over three lines.
func threeCNOT() *icm.Circuit {
	c := qc.New("fig9", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	ic, err := icm.FromDecomposed(c)
	if err != nil {
		panic(err)
	}
	return ic
}

func buildNetlist(t *testing.T, ic *icm.Circuit) *Netlist {
	t.Helper()
	d, err := canonical.Build(ic)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
	return nl
}

func TestThreeCNOTModularization(t *testing.T) {
	nl := buildNetlist(t, threeCNOT())
	// Loop 0 spans lines 0-1, loop 1 spans 1-2, loop 2 spans 0-2. Line 1
	// is dead by loop 2's slot (its last CNOT is at slot 1), so loop 2
	// penetrates only lines 0 and 2.
	if got := len(nl.Loops[2].Modules); got != 2 {
		t.Errorf("loop 2 penetrations: %d want 2", got)
	}
	if got := len(nl.Loops[0].Modules); got != 2 {
		t.Errorf("loop 0 penetrations: %d want 2", got)
	}
	// Total segments = sum of penetrations = 2 + 2 + 2.
	if len(nl.Segments) != 6 {
		t.Errorf("segments: %d want 6", len(nl.Segments))
	}
	if len(nl.Pins) != 12 {
		t.Errorf("pins: %d want 12", len(nl.Pins))
	}
}

func TestAdjacentSlotsShareModule(t *testing.T) {
	// Two CNOTs at adjacent slots touching the same line group into one
	// module on that line.
	c := qc.New("adj", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2))
	ic, err := icm.FromDecomposed(c)
	if err != nil {
		t.Fatal(err)
	}
	nl := buildNetlist(t, ic)
	if got := len(nl.ModulesOfLine[1]); got != 1 {
		t.Fatalf("line 1 modules: %d want 1 (adjacent slots merge)", got)
	}
	m := nl.Modules[nl.ModulesOfLine[1][0]]
	if len(m.Segments) != 2 {
		t.Fatalf("merged module segments: %d want 2", len(m.Segments))
	}
	if m.SlotLo != 0 || m.SlotHi != 1 {
		t.Fatalf("slot range: [%d,%d]", m.SlotLo, m.SlotHi)
	}
}

func TestGappedSlotsSplitModules(t *testing.T) {
	// CNOT 0 and CNOT 2 touch line 0 with a gap (CNOT 1 does not), so
	// line 0 gets two modules.
	c := qc.New("gap", 4)
	c.Append(qc.CNOT(0, 1), qc.CNOT(2, 3), qc.CNOT(0, 1))
	ic, err := icm.FromDecomposed(c)
	if err != nil {
		t.Fatal(err)
	}
	nl := buildNetlist(t, ic)
	if got := len(nl.ModulesOfLine[0]); got != 2 {
		t.Fatalf("line 0 modules: %d want 2", got)
	}
}

func TestCommonModulesAndRelativeLoops(t *testing.T) {
	nl := buildNetlist(t, threeCNOT())
	// Loops 0 (lines 0-1) and 2 (lines 0,2) are at slots 0 and 2: slot
	// gap 2 on line 0 means separate modules — no common module.
	// Loops 1 (slot 1, lines 1-2) and 2 (slot 2, lines 0,2) share
	// adjacent slots on line 2 → one common module.
	common12 := nl.CommonModules(1, 2)
	if len(common12) != 1 {
		t.Fatalf("common modules of loops 1,2: %v", common12)
	}
	rel := nl.RelativeLoops()
	found := false
	for _, r := range rel[1] {
		if r == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("loops 1 and 2 should be relatives")
	}
}

func TestInjectionModuleMarking(t *testing.T) {
	c := qc.New("inj", 1)
	c.Append(qc.T(0))
	ic, err := icm.FromDecomposed(c)
	if err != nil {
		t.Fatal(err)
	}
	nl := buildNetlist(t, ic)
	var nY, nA int
	for _, m := range nl.Modules {
		switch m.Kind {
		case KindInjectY:
			nY++
		case KindInjectA:
			nA++
		}
	}
	if nY != 1 || nA != 1 {
		t.Fatalf("injection modules: %d Y, %d A want 1,1", nY, nA)
	}
}

func TestTGroupMeasurementModules(t *testing.T) {
	c := qc.New("tg", 1)
	c.Append(qc.T(0))
	ic, err := icm.FromDecomposed(c)
	if err != nil {
		t.Fatal(err)
	}
	nl := buildNetlist(t, ic)
	if len(nl.ZMeasModule) != 1 {
		t.Fatalf("ZMeasModule entries: %d", len(nl.ZMeasModule))
	}
	zm := nl.ZMeasModule[0]
	if nl.Modules[zm].Line != ic.TGroups[0].ZMeasLine {
		t.Fatalf("Z module on wrong line")
	}
	for k, m := range nl.TeleportModules[0] {
		if nl.Modules[m].Line != ic.TGroups[0].TeleportLines[k] {
			t.Fatalf("teleport module %d on wrong line", k)
		}
	}
}

func TestLiveSegments(t *testing.T) {
	nl := buildNetlist(t, threeCNOT())
	if nl.LiveSegments() != len(nl.Segments) {
		t.Fatal("all segments should start live")
	}
	nl.Segments[0].Removed = true
	if nl.LiveSegments() != len(nl.Segments)-1 {
		t.Fatal("removed segment still counted")
	}
	m := nl.Segments[0].Module
	live := nl.LiveSegmentsOf(m)
	for _, s := range live {
		if s == 0 {
			t.Fatal("removed segment returned by LiveSegmentsOf")
		}
	}
}

func TestBenchmarkScaleModularization(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	r, err := decompose.Decompose(mustGen(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	ic, err := icm.FromDecomposed(r.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	nl := buildNetlist(t, ic)
	s := nl.Stats()
	// Sanity bands: modules within [C, 4C], every loop penetrates ≥ 2
	// modules on average.
	c := len(ic.CNOTs)
	if s.Modules < c/2 || s.Modules > 6*c {
		t.Errorf("modules %d out of sanity band for %d CNOTs", s.Modules, c)
	}
	if s.Loops != c {
		t.Errorf("loops %d want %d", s.Loops, c)
	}
	if s.Segments < 2*c {
		t.Errorf("segments %d too few for %d CNOTs", s.Segments, c)
	}
	t.Logf("%s: %d modules, %d segments, %d loops", spec.Name, s.Modules, s.Segments, s.Loops)
}

// Property: for any generated circuit, modularization yields a netlist
// where every loop's penetration count equals its line span, and the
// canonical volume identity D×W×H = 3C × L × 2 holds.
func TestQuickModularizationInvariants(t *testing.T) {
	f := func(q uint8, nt, nn uint8, seed int64) bool {
		spec := qc.BenchmarkSpec{
			Name:     "fuzz",
			Qubits:   3 + int(q%8),
			Toffolis: 1 + int(nt%5),
			NOTs:     int(nn % 5),
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
		w, h, depth := d.Dims()
		if w != len(ic.Lines) || h != 2 || depth != 3*len(ic.CNOTs) {
			return false
		}
		nl, err := Build(d)
		if err != nil || nl.Validate() != nil {
			return false
		}
		for id := range nl.Loops {
			if len(nl.Loops[id].Segments) != len(d.Penetrations(id)) {
				return false
			}
			if len(nl.Loops[id].Segments) < 2 {
				return false // control and target always penetrate
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
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
