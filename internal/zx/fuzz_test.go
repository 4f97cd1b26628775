package zx

import (
	"testing"

	"repro/internal/qc"
	"repro/internal/sim"
)

// decodeFuzzCircuit turns a fuzzer byte stream into a small decomposed
// circuit: two bytes per gate, the first selecting the kind and the
// second the wire(s). The gate count is capped so every decoded circuit
// stays cheap to simulate and to price canonically.
func decodeFuzzCircuit(qubits int, data []byte) *qc.Circuit {
	if qubits < 0 {
		qubits = -qubits
	}
	n := 2 + qubits%5
	const maxGates = 24
	c := qc.New("fuzz-zx", n)
	for i := 0; i+1 < len(data) && c.NumGates() < maxGates; i += 2 {
		op, qb := data[i], data[i+1]
		q := int(qb) % n
		switch op % 9 {
		case 0:
			t := (q + 1 + int(op>>4)%(n-1)) % n
			c.Append(qc.CNOT(q, t))
		case 1:
			c.Append(qc.T(q))
		case 2:
			c.Append(qc.P(q))
		case 3:
			c.Append(qc.Z(q))
		case 4:
			c.Append(pdag(q))
		case 5:
			c.Append(qc.Tdag(q))
		case 6:
			c.Append(qc.V(q))
		case 7:
			c.Append(qc.NOT(q))
		case 8:
			c.Append(vdag(q))
		}
	}
	return c
}

// FuzzZXRewrite drives fuzzer-shaped decomposed circuits through the ZX
// rewrite chain and checks the pass's whole contract: the rewrite engine
// terminates (a hang or rewrite-budget blowup fails the run), a
// successful reduce preserves the qubit count and the circuit's unitary
// (state-vector checked — every decoded circuit is small enough), and
// Optimize never returns a canonically costlier circuit than its input.
func FuzzZXRewrite(f *testing.F) {
	f.Add(2, []byte{0x00, 0x01, 0x11, 0x00, 0x51, 0x01})             // CNOT + T + Tdag
	f.Add(3, []byte{0x11, 0x00, 0x11, 0x00, 0x00, 0x00})             // T.T fuses to P
	f.Add(4, []byte{0x66, 0x02, 0x00, 0x02, 0x88, 0x03})             // V, CNOT, Vdag
	f.Add(1, []byte{0x22, 0x00, 0x42, 0x00, 0x31, 0x01})             // P.Pdag.Z
	f.Add(5, []byte{0x10, 0x00, 0x00, 0x01, 0x70, 0x02, 0x13, 0x03}) // mixed
	f.Fuzz(func(t *testing.T, qubits int, data []byte) {
		c := decodeFuzzCircuit(qubits, data)
		if c.NumGates() == 0 {
			t.Skip()
		}
		n := c.NumQubits()

		// The wire-structured light pass has no legitimate failure mode on
		// a valid decomposed circuit and must always preserve the unitary.
		lred, _, err := reduceLight(c)
		if err != nil {
			t.Fatalf("reduceLight: %v", err)
		}
		if lred.NumQubits() != n || len(lred.Gates) > len(c.Gates) {
			t.Fatalf("reduceLight broke shape: %d qubits %d gates -> %d qubits %d gates",
				n, len(c.Gates), lred.NumQubits(), len(lred.Gates))
		}
		if ok, err := sim.EquivalentUpToPhase(n, c, lred); err != nil || !ok {
			t.Fatalf("reduceLight changed the unitary (ok=%v err=%v) of %v", ok, err, c.Gates)
		}

		// reduce may legitimately fail (extraction anomalies fall back in
		// Optimize), but when it succeeds the result must be a faithful,
		// same-width decomposed circuit.
		if red, _, err := reduce(c); err == nil {
			if red.NumQubits() != n {
				t.Fatalf("reduce changed qubit count: %d -> %d", n, red.NumQubits())
			}
			if err := red.Validate(); err != nil {
				t.Fatalf("reduce produced an invalid circuit: %v", err)
			}
			ok, err := sim.EquivalentUpToPhase(n, c, red)
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			if !ok {
				t.Fatalf("reduce changed the unitary of %v", c.Gates)
			}
		}

		out, st, err := Optimize(c)
		if err != nil {
			t.Fatalf("Optimize rejected a decomposed circuit: %v", err)
		}
		if out.NumQubits() != n {
			t.Fatalf("Optimize changed qubit count: %d -> %d", n, out.NumQubits())
		}
		if st.CanonicalAfter > st.CanonicalBefore {
			t.Fatalf("Optimize made the circuit worse: canonical %d -> %d", st.CanonicalBefore, st.CanonicalAfter)
		}
		if st.Applied == (st.FallbackReason != "") {
			t.Fatalf("inconsistent stats: applied=%v fallback=%q", st.Applied, st.FallbackReason)
		}
	})
}
