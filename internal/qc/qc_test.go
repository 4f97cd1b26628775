package qc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestGateConstructors(t *testing.T) {
	cases := []struct {
		g     Gate
		kind  GateKind
		ctrls int
		tgts  int
	}{
		{NOT(0), GateNOT, 0, 1},
		{CNOT(0, 1), GateCNOT, 1, 1},
		{Toffoli(0, 1, 2), GateToffoli, 2, 1},
		{Fredkin(0, 1, 2), GateFredkin, 1, 2},
		{Swap(0, 1), GateSwap, 0, 2},
		{MCT([]int{0, 1, 2}, 3), GateMCT, 3, 1},
		{H(0), GateH, 0, 1},
		{P(0), GateP, 0, 1},
		{V(0), GateV, 0, 1},
		{T(0), GateT, 0, 1},
		{Tdag(0), GateTdag, 0, 1},
	}
	for _, tc := range cases {
		if tc.g.Kind != tc.kind {
			t.Errorf("%v: kind %v", tc.g, tc.g.Kind)
		}
		if len(tc.g.Controls) != tc.ctrls || len(tc.g.Targets) != tc.tgts {
			t.Errorf("%v: operands %d/%d", tc.g, len(tc.g.Controls), len(tc.g.Targets))
		}
		if err := tc.g.Validate(); err != nil {
			t.Errorf("%v: validate: %v", tc.g, err)
		}
	}
}

func TestGateValidateRejects(t *testing.T) {
	bad := []Gate{
		{Kind: GateCNOT, Controls: []int{0}, Targets: []int{0}},          // duplicate
		{Kind: GateCNOT, Targets: []int{1}},                              // missing control
		{Kind: GateToffoli, Controls: []int{0, 1, 2}, Targets: []int{3}}, // too many controls
		{Kind: GateNOT, Targets: []int{-1}},                              // negative index
		{Kind: GateMCT, Controls: []int{0, 1}, Targets: []int{2}},        // mct needs ≥3 ctrls
		{Kind: GateKind(99), Targets: []int{0}},                          // unknown kind
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("gate %v should fail validation", g)
		}
	}
}

func TestGateQubitsAndMax(t *testing.T) {
	g := Toffoli(4, 2, 7)
	q := g.Qubits()
	if len(q) != 3 || q[0] != 4 || q[1] != 2 || q[2] != 7 {
		t.Fatalf("qubits: %v", q)
	}
	if g.MaxQubit() != 7 {
		t.Fatalf("max: %d", g.MaxQubit())
	}
	if (Gate{}).MaxQubit() != -1 {
		t.Fatal("empty gate max should be -1")
	}
}

func TestCircuitValidate(t *testing.T) {
	c := New("test", 3)
	c.Append(Toffoli(0, 1, 2), CNOT(0, 2), NOT(1))
	if err := c.Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
	c.Append(CNOT(0, 5))
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
}

func TestCircuitCountKindClone(t *testing.T) {
	c := New("c", 4)
	c.Append(Toffoli(0, 1, 2), Toffoli(1, 2, 3), CNOT(0, 1), NOT(3))
	if c.CountKind(GateToffoli) != 2 || c.CountKind(GateCNOT) != 1 || c.CountKind(GateNOT) != 1 {
		t.Fatalf("counts wrong")
	}
	d := c.Clone()
	d.Gates[0].Controls[0] = 3
	if c.Gates[0].Controls[0] != 0 {
		t.Fatal("clone aliases controls")
	}
	d.Qubits[0] = "zzz"
	if c.Qubits[0] == "zzz" {
		t.Fatal("clone aliases qubit names")
	}
}

func TestParseRealRoundTrip(t *testing.T) {
	src := `# sample circuit
.version 2.0
.numvars 4
.variables a b c d
.inputs a b c d
.outputs a b c d
.begin
t1 a
t2 a b
t3 a b c
f2 c d
f3 a c d
.end
`
	c, err := ParseReal("sample", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 4 || c.NumGates() != 5 {
		t.Fatalf("parsed %d qubits %d gates", c.NumQubits(), c.NumGates())
	}
	wantKinds := []GateKind{GateNOT, GateCNOT, GateToffoli, GateSwap, GateFredkin}
	for i, k := range wantKinds {
		if c.Gates[i].Kind != k {
			t.Errorf("gate %d kind %v want %v", i, c.Gates[i].Kind, k)
		}
	}
	var buf bytes.Buffer
	if err := WriteReal(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseReal("sample", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != c.NumGates() || c2.NumQubits() != c.NumQubits() {
		t.Fatalf("round trip changed shape")
	}
	for i := range c.Gates {
		if c.Gates[i].Kind != c2.Gates[i].Kind {
			t.Errorf("gate %d kind changed", i)
		}
	}
}

func TestParseRealMCTAndV(t *testing.T) {
	src := `.numvars 5
.variables a b c d e
.begin
t4 a b c d
v a b
v+ c
.end
`
	c, err := ParseReal("mct", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Kind != GateMCT || len(c.Gates[0].Controls) != 3 {
		t.Fatalf("mct parse: %v", c.Gates[0])
	}
	if c.Gates[1].Kind != GateV || len(c.Gates[1].Controls) != 1 {
		t.Fatalf("controlled v parse: %v", c.Gates[1])
	}
	if c.Gates[2].Kind != GateVdag || len(c.Gates[2].Controls) != 0 {
		t.Fatalf("v+ parse: %v", c.Gates[2])
	}
}

func TestParseRealErrors(t *testing.T) {
	cases := []string{
		".numvars 2\n.variables a b\n.begin\nt2 a z\n.end\n", // unknown var
		".numvars 2\n.variables a b\nt1 a\n",                 // gate outside body
		".numvars 2\n.variables a b\n.begin\nq9 a\n.end\n",   // unknown mnemonic
		".numvars 2\n.variables a b\n.begin\nt3 a b\n.end\n", // wrong arity
		"",             // no variables
		".numvars x\n", // bad numvars
	}
	for i, src := range cases {
		if _, err := ParseReal("bad", strings.NewReader(src)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestParseRealSmallAllocation bounds the bytes one parse of a small
// circuit allocates: the scanner buffer must grow with the input, not
// start at the 1 MiB line limit.
func TestParseRealSmallAllocation(t *testing.T) {
	const src = ".version 1.0\n.numvars 3\n.variables a b c\n.begin\nt2 a b\nt2 b c\nt2 a c\n.end\n"
	const parses = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < parses; i++ {
		if _, err := ParseReal("small", strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perParse := (after.TotalAlloc - before.TotalAlloc) / parses; perParse >= 64<<10 {
		t.Fatalf("one small parse allocates %d bytes, want < %d", perParse, 64<<10)
	}
}

// TestParseRealLongLine pins the 1 MiB line limit: a .variables line
// longer than bufio's 64 KiB default still parses.
func TestParseRealLongLine(t *testing.T) {
	const n = 10000
	var sb strings.Builder
	sb.WriteString(".variables")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " v%05d", i)
	}
	if sb.Len() <= 64<<10 {
		t.Fatalf("header is %d bytes, want more than 64 KiB", sb.Len())
	}
	sb.WriteString("\n.begin\nt2 v00000 v09999\n.end\n")
	c, err := ParseReal("wide", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Qubits) != n || len(c.Gates) != 1 {
		t.Fatalf("parsed %d qubits and %d gates, want %d and 1", len(c.Qubits), len(c.Gates), n)
	}
}

func TestWriteRealRejectsQuantumGates(t *testing.T) {
	c := New("q", 1)
	c.Append(T(0))
	if err := WriteReal(&bytes.Buffer{}, c); err == nil {
		t.Fatal("T gate should not be writable as .real")
	}
}

func TestBenchmarksTable(t *testing.T) {
	if len(Benchmarks) != 8 {
		t.Fatalf("want 8 benchmarks, got %d", len(Benchmarks))
	}
	// Published Table I columns: name, #Qubits_o, #Gates, #|A⟩ (= 7·Toffolis).
	want := []struct {
		name   string
		qubits int
		gates  int
		nA     int
	}{
		{"4gt10-v1_81", 5, 6, 21},
		{"4gt4-v0_73", 5, 17, 42},
		{"rd84_142", 15, 28, 147},
		{"hwb5_53", 5, 55, 217},
		{"add16_174", 49, 64, 224},
		{"sym6_145", 7, 36, 252},
		{"cycle17_3_112", 20, 48, 315},
		{"ham15_107", 15, 132, 623},
	}
	for i, w := range want {
		s := Benchmarks[i]
		if s.Name != w.name || s.Qubits != w.qubits {
			t.Errorf("bench %d: %s/%d", i, s.Name, s.Qubits)
		}
		if s.Gates() != w.gates {
			t.Errorf("%s: gates %d want %d", s.Name, s.Gates(), w.gates)
		}
		if s.Toffolis*7 != w.nA {
			t.Errorf("%s: toffolis %d give %d |A⟩, want %d", s.Name, s.Toffolis, s.Toffolis*7, w.nA)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	s, err := BenchmarkByName("hwb5_53")
	if err != nil || s.Toffolis != 31 {
		t.Fatalf("lookup: %v %v", s, err)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	for _, s := range Benchmarks {
		c1 := mustGen(t, s)
		c2 := mustGen(t, s)
		if err := c1.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if c1.NumGates() != s.Gates() {
			t.Fatalf("%s: %d gates want %d", s.Name, c1.NumGates(), s.Gates())
		}
		if c1.NumQubits() != s.Qubits {
			t.Fatalf("%s: %d qubits want %d", s.Name, c1.NumQubits(), s.Qubits)
		}
		if c1.CountKind(GateToffoli) != s.Toffolis {
			t.Fatalf("%s: toffoli count", s.Name)
		}
		for i := range c1.Gates {
			g1, g2 := c1.Gates[i], c2.Gates[i]
			if g1.Kind != g2.Kind || g1.String() != g2.String() {
				t.Fatalf("%s: generation not deterministic at gate %d", s.Name, i)
			}
		}
	}
}

// Property: any generated spec produces a circuit whose gates all validate
// and whose operand sets are duplicate-free.
func TestQuickGenerate(t *testing.T) {
	f := func(q uint8, nt, nc, nn uint8, seed int64) bool {
		qubits := 3 + int(q%30)
		spec := BenchmarkSpec{
			Name:     "fuzz",
			Qubits:   qubits,
			Toffolis: int(nt % 40),
			CNOTs:    int(nc % 40),
			NOTs:     int(nn % 40),
			Seed:     seed,
		}
		c, err := spec.Generate()
		return err == nil && c.Validate() == nil && c.NumGates() == spec.Gates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGateString(t *testing.T) {
	if s := Toffoli(0, 1, 2).String(); s != "t3 q0 q1 q2" {
		t.Errorf("toffoli string: %q", s)
	}
	if s := H(3).String(); s != "h q3" {
		t.Errorf("h string: %q", s)
	}
	if s := Swap(1, 2).String(); s != "f2 q1 q2" {
		t.Errorf("swap string: %q", s)
	}
}

func TestDepth(t *testing.T) {
	c := New("d", 4)
	c.Append(CNOT(0, 1), CNOT(2, 3), CNOT(1, 2), NOT(0))
	// Layer 0: CNOT(0,1) & CNOT(2,3); layer 1: CNOT(1,2) & NOT(0).
	if got := c.Depth(); got != 2 {
		t.Fatalf("depth: %d want 2", got)
	}
	if New("empty", 2).Depth() != 0 {
		t.Fatal("empty circuit depth should be 0")
	}
}

func TestHistogramAndTCount(t *testing.T) {
	c := New("h", 2)
	c.Append(T(0), Tdag(1), T(0), CNOT(0, 1), H(1))
	h := c.Histogram()
	if h[GateT] != 2 || h[GateTdag] != 1 || h[GateCNOT] != 1 || h[GateH] != 1 {
		t.Fatalf("histogram: %v", h)
	}
	if c.TCount() != 3 {
		t.Fatalf("T count: %d", c.TCount())
	}
}

// mustGen generates a benchmark circuit, failing the test on error.
func mustGen(tb testing.TB, spec BenchmarkSpec) *Circuit {
	tb.Helper()
	c, err := spec.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}
