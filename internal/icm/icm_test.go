package icm

import (
	"testing"
	"testing/quick"

	"repro/internal/decompose"
	"repro/internal/qc"
)

func convert(t *testing.T, c *qc.Circuit) *Circuit {
	t.Helper()
	r, err := decompose.Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := FromDecomposed(r.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.Validate(); err != nil {
		t.Fatalf("converted circuit invalid: %v", err)
	}
	return ic
}

func TestFromDecomposedCNOTOnly(t *testing.T) {
	c := qc.New("cnots", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	ic := convert(t, c)
	s := ic.Stats()
	if s.Lines != 3 || s.CNOTs != 3 || s.NumY != 0 || s.NumA != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if ic.NumLogical != 3 {
		t.Fatalf("logical: %d", ic.NumLogical)
	}
}

func TestFromDecomposedPGate(t *testing.T) {
	c := qc.New("p", 1)
	c.Append(qc.P(0))
	ic := convert(t, c)
	s := ic.Stats()
	if s.Lines != 2 || s.CNOTs != 1 || s.NumY != 1 {
		t.Fatalf("P footprint: %+v", s)
	}
	if ic.Lines[1].Init != InjectY {
		t.Fatalf("ancilla init: %v", ic.Lines[1].Init)
	}
}

func TestFromDecomposedTGate(t *testing.T) {
	c := qc.New("t", 1)
	c.Append(qc.T(0))
	ic := convert(t, c)
	s := ic.Stats()
	// T block: 5 new lines, 6 CNOTs, 1 |A⟩, 1 |Y⟩.
	if s.Lines != 6 || s.CNOTs != 6 || s.NumA != 1 || s.NumY != 1 {
		t.Fatalf("T footprint: %+v", s)
	}
	if len(ic.TGroups) != 1 {
		t.Fatalf("T groups: %d", len(ic.TGroups))
	}
	tg := ic.TGroups[0]
	if tg.ZMeasLine != 0 {
		t.Fatalf("Z measurement should consume the input line, got %d", tg.ZMeasLine)
	}
	if ic.Lines[0].Meas != MeasZ {
		t.Fatalf("input line measurement: %v", ic.Lines[0].Meas)
	}
	// The logical qubit must continue on a fresh line.
	last := ic.Lines[len(ic.Lines)-1]
	if last.Qubit != 0 {
		t.Fatalf("teleported qubit line not tagged: %+v", last)
	}
}

func TestTSLOrdering(t *testing.T) {
	c := qc.New("tt", 2)
	c.Append(qc.T(0), qc.T(1), qc.T(0), qc.T(0))
	ic := convert(t, c)
	if len(ic.TSL[0]) != 3 || len(ic.TSL[1]) != 1 {
		t.Fatalf("TSL sizes: %v", ic.TSL)
	}
	for k, id := range ic.TSL[0] {
		if ic.TGroups[id].Seq != k {
			t.Fatalf("TSL[0][%d] has Seq %d", k, ic.TGroups[id].Seq)
		}
	}
}

func TestToffoliFootprint(t *testing.T) {
	c := qc.New("tof", 3)
	c.Append(qc.Toffoli(0, 1, 2))
	ic := convert(t, c)
	s := ic.Stats()
	// Per DESIGN.md calibration: Toffoli → 7 T blocks (5 lines, 6 CNOTs,
	// 1A+1Y each) + 2 H = 2(P·V·P) → 6 Y lines/CNOTs + 6 direct CNOTs.
	if s.NumA != 7 {
		t.Errorf("|A⟩: %d want 7", s.NumA)
	}
	if s.NumY != 13 {
		t.Errorf("|Y⟩: %d want 13", s.NumY)
	}
	if s.Lines != 3+7*5+6 {
		t.Errorf("lines: %d want %d", s.Lines, 3+7*5+6)
	}
	if s.CNOTs != 6+7*6+6 {
		t.Errorf("CNOTs: %d want %d", s.CNOTs, 6+7*6+6)
	}
	if s.TGroups != 7 {
		t.Errorf("T groups: %d", s.TGroups)
	}
}

func TestPauliFrameZeroCost(t *testing.T) {
	c := qc.New("x", 2)
	c.Append(qc.NOT(0), qc.NOT(1), qc.CNOT(0, 1))
	ic := convert(t, c)
	if ic.Paulis != 2 {
		t.Fatalf("paulis: %d", ic.Paulis)
	}
	if ic.Stats().Lines != 2 || ic.Stats().CNOTs != 1 {
		t.Fatalf("pauli gates should add no lines or CNOTs")
	}
}

func TestFromDecomposedRejectsHighLevelGates(t *testing.T) {
	c := qc.New("h", 1)
	c.Append(qc.H(0))
	if _, err := FromDecomposed(c); err == nil {
		t.Fatal("H gate should be rejected (must decompose first)")
	}
	c2 := qc.New("cv", 2)
	c2.Append(qc.Gate{Kind: qc.GateV, Controls: []int{0}, Targets: []int{1}})
	if _, err := FromDecomposed(c2); err == nil {
		t.Fatal("controlled V should be rejected")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := qc.New("v", 2)
	c.Append(qc.T(0))
	ic := convert(t, c)

	bad := *ic
	bad.CNOTs = append([]CNOT(nil), ic.CNOTs...)
	bad.CNOTs[0].Control = 999
	if err := bad.Validate(); err == nil {
		t.Error("dangling CNOT accepted")
	}

	bad2 := *ic
	bad2.CNOTs = append([]CNOT(nil), ic.CNOTs...)
	bad2.CNOTs[0].Target = bad2.CNOTs[0].Control
	if err := bad2.Validate(); err == nil {
		t.Error("self-loop CNOT accepted")
	}
}

func TestBenchmarkStatsIdentities(t *testing.T) {
	// For every paper benchmark: #|A⟩ = 7·#Toffoli and the footprint
	// identities of DESIGN.md hold exactly for the generated circuits.
	for _, spec := range qc.Benchmarks {
		r, err := decompose.Decompose(mustGen(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		ic, err := FromDecomposed(r.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		s := ic.Stats()
		if s.NumA != 7*spec.Toffolis {
			t.Errorf("%s: |A⟩ %d want %d", spec.Name, s.NumA, 7*spec.Toffolis)
		}
		if s.NumY != 13*spec.Toffolis {
			t.Errorf("%s: |Y⟩ %d want %d", spec.Name, s.NumY, 13*spec.Toffolis)
		}
		wantLines := spec.Qubits + 41*spec.Toffolis
		if s.Lines != wantLines {
			t.Errorf("%s: lines %d want %d", spec.Name, s.Lines, wantLines)
		}
		wantCNOTs := 54*spec.Toffolis + spec.CNOTs
		if s.CNOTs != wantCNOTs {
			t.Errorf("%s: CNOTs %d want %d", spec.Name, s.CNOTs, wantCNOTs)
		}
		if s.TGroups != 7*spec.Toffolis {
			t.Errorf("%s: T groups %d", spec.Name, s.TGroups)
		}
	}
}

// Property: conversion of any generated circuit validates.
func TestQuickConversionValid(t *testing.T) {
	f := func(q uint8, nt, nn uint8, seed int64) bool {
		spec := qc.BenchmarkSpec{
			Name:     "fuzz",
			Qubits:   3 + int(q%10),
			Toffolis: int(nt % 10),
			NOTs:     int(nn % 10),
			Seed:     seed,
		}
		r, err := decompose.Decompose(mustGen(t, spec))
		if err != nil {
			return false
		}
		ic, err := FromDecomposed(r.Circuit)
		return err == nil && ic.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
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
