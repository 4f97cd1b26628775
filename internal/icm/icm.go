// Package icm implements the ICM (Initialization, CNOT, Measurement)
// representation of fault-tolerant circuits and the conversion from a
// decomposed {CNOT, P, V, T} circuit into it, following Paler et al. and
// Section II of the paper.
//
// An ICM circuit is a set of qubit lines, each with an initialization
// (|0⟩, |+⟩, or a |Y⟩/|A⟩ state injection) and a measurement basis, plus a
// list of CNOT gates between lines. Every non-CNOT gate of the TQEC set is
// realized by gate teleportation:
//
//   - P (and V, up to basis change) consumes one |Y⟩-injected ancilla line
//     coupled by one CNOT (Fig. 13 of the paper),
//   - T consumes one |A⟩-injected ancilla line, one |Y⟩-injected line for
//     the deterministic P-correction, and three workspace lines, coupled by
//     six CNOTs (Fig. 8(a)); its five measurements are time-ordered: the
//     input line's Z-basis measurement must precede the four selective
//     teleportation measurements, and the selective measurements of
//     successive T gates on the same logical qubit must be performed in
//     program order (Fig. 8(c,d)).
//
// The conversion records every T-gate block as a TGroup and maintains the
// per-qubit time-dependent super-module lists (TSLs) the placer needs.
package icm

import (
	"fmt"

	"repro/internal/qc"
)

// InitKind is the initialization of an ICM line.
type InitKind int

// Line initializations. InjectY and InjectA mark state injections that must
// be fed by a distillation box.
const (
	InitZero InitKind = iota // |0⟩, Z-basis initialization
	InitPlus                 // |+⟩, X-basis initialization
	InjectY                  // |Y⟩ state injection
	InjectA                  // |A⟩ state injection
)

// String returns a short mnemonic.
func (k InitKind) String() string {
	switch k {
	case InitZero:
		return "|0>"
	case InitPlus:
		return "|+>"
	case InjectY:
		return "|Y>"
	case InjectA:
		return "|A>"
	}
	return fmt.Sprintf("InitKind(%d)", int(k))
}

// MeasKind is the measurement terminating an ICM line.
type MeasKind int

// Line measurements. MeasOut marks a primary output (measured by the
// computation's consumer, not the circuit).
const (
	MeasZ MeasKind = iota
	MeasX
	MeasOut
)

// String returns a short mnemonic.
func (k MeasKind) String() string {
	switch k {
	case MeasZ:
		return "MZ"
	case MeasX:
		return "MX"
	case MeasOut:
		return "out"
	}
	return fmt.Sprintf("MeasKind(%d)", int(k))
}

// Line is one qubit line of the ICM circuit.
type Line struct {
	ID    int
	Init  InitKind
	Meas  MeasKind
	Label string
	// Qubit is the logical circuit qubit this line carries at creation
	// time, or -1 for ancilla lines.
	Qubit int
}

// CNOT is one CNOT gate between two lines.
type CNOT struct {
	ID      int
	Control int // line ID
	Target  int // line ID
}

// TGroup records one T-gate teleportation block and its time-ordered
// measurement constraint (Section II-B).
type TGroup struct {
	ID    int
	Qubit int // logical qubit the T acts on
	// Seq is the position of this T gate in the per-qubit program order;
	// selective measurements of group Seq=k must precede those of Seq=k+1.
	Seq int
	// ZMeasLine is the line whose Z-basis measurement must be performed
	// before the selective teleportation measurements.
	ZMeasLine int
	// TeleportLines are the four lines carrying the selective
	// teleportation measurements.
	TeleportLines [4]int
	// CNOTs are the IDs of the six CNOTs in this block.
	CNOTs []int
}

// Circuit is an ICM circuit.
type Circuit struct {
	Name    string
	Lines   []Line
	CNOTs   []CNOT
	TGroups []TGroup
	// TSL maps each logical qubit to its ordered list of TGroup IDs (the
	// time-dependent super-module list of Section III-C2).
	TSL map[int][]int
	// NumLogical is the number of logical (input) qubits.
	NumLogical int
	// Paulis counts frame-tracked Pauli gates (zero geometric cost).
	Paulis int
}

// Stats are the Table-I statistics of an ICM circuit.
type Stats struct {
	Lines   int // #Qubits_d
	CNOTs   int
	NumY    int // #|Y⟩ ancillas
	NumA    int // #|A⟩ ancillas
	TGroups int
}

// Stats tallies the circuit's Table-I statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{Lines: len(c.Lines), CNOTs: len(c.CNOTs), TGroups: len(c.TGroups)}
	for _, l := range c.Lines {
		switch l.Init {
		case InjectY:
			s.NumY++
		case InjectA:
			s.NumA++
		}
	}
	return s
}

// newLine appends a line and returns its ID.
func (c *Circuit) newLine(init InitKind, meas MeasKind, label string, qubit int) int {
	id := len(c.Lines)
	c.Lines = append(c.Lines, Line{ID: id, Init: init, Meas: meas, Label: label, Qubit: qubit})
	return id
}

// addCNOT appends a CNOT and returns its ID.
func (c *Circuit) addCNOT(control, target int) int {
	id := len(c.CNOTs)
	c.CNOTs = append(c.CNOTs, CNOT{ID: id, Control: control, Target: target})
	return id
}

// FromDecomposed converts a decomposed {CNOT,P,V,T} circuit (plus
// frame-tracked NOT/Z markers) into ICM form. It returns an error if the
// circuit contains a gate outside the TQEC-supported set.
func FromDecomposed(dc *qc.Circuit) (*Circuit, error) {
	if err := dc.Validate(); err != nil {
		return nil, fmt.Errorf("icm: input invalid: %w", err)
	}
	c := &Circuit{
		Name:       dc.Name,
		TSL:        map[int][]int{},
		NumLogical: dc.NumQubits(),
	}
	// cur[q] is the line currently carrying logical qubit q.
	cur := make([]int, dc.NumQubits())
	for q := range cur {
		cur[q] = c.newLine(InitZero, MeasOut, dc.Qubits[q], q)
	}
	tSeq := make([]int, dc.NumQubits()) // per-qubit T counter
	for gi, g := range dc.Gates {
		switch g.Kind {
		case qc.GateNOT, qc.GateZ:
			c.Paulis++
		case qc.GateCNOT:
			c.addCNOT(cur[g.Controls[0]], cur[g.Targets[0]])
		case qc.GateP, qc.GatePdag:
			q := g.Targets[0]
			y := c.newLine(InjectY, MeasZ, fmt.Sprintf("p%d.y", gi), -1)
			c.addCNOT(cur[q], y)
		case qc.GateV, qc.GateVdag:
			if len(g.Controls) != 0 {
				return nil, fmt.Errorf("icm: gate %d: controlled V must be decomposed first", gi)
			}
			q := g.Targets[0]
			y := c.newLine(InjectY, MeasX, fmt.Sprintf("v%d.y", gi), -1)
			c.addCNOT(y, cur[q])
		case qc.GateT, qc.GateTdag:
			c.lowerT(gi, g.Targets[0], cur, tSeq)
		default:
			return nil, fmt.Errorf("icm: gate %d has non-ICM kind %v (run decompose first)", gi, g.Kind)
		}
	}
	return c, nil
}

// lowerT expands one T (or T†) gate into its teleportation block: five new
// lines, six CNOTs and a TGroup carrying the time-ordering constraint. The
// logical qubit continues on the block's last workspace line.
func (c *Circuit) lowerT(gi, q int, cur, tSeq []int) {
	in := cur[q]
	a := c.newLine(InjectA, MeasX, fmt.Sprintf("t%d.a", gi), -1)
	y := c.newLine(InjectY, MeasX, fmt.Sprintf("t%d.y", gi), -1)
	w1 := c.newLine(InitZero, MeasX, fmt.Sprintf("t%d.w1", gi), -1)
	w2 := c.newLine(InitPlus, MeasZ, fmt.Sprintf("t%d.w2", gi), -1)
	w3 := c.newLine(InitZero, MeasOut, fmt.Sprintf("t%d.w3", gi), q)

	g := TGroup{
		ID:            len(c.TGroups),
		Qubit:         q,
		Seq:           tSeq[q],
		ZMeasLine:     in,
		TeleportLines: [4]int{a, y, w1, w2},
	}
	tSeq[q]++
	g.CNOTs = append(g.CNOTs,
		c.addCNOT(in, a),
		c.addCNOT(a, w1),
		c.addCNOT(w1, y),
		c.addCNOT(y, w2),
		c.addCNOT(w2, w3),
		c.addCNOT(in, w3),
	)
	// The input line is consumed: its Z measurement is the time-ordered
	// first measurement of the block.
	c.Lines[in].Meas = MeasZ
	cur[q] = w3
	c.TGroups = append(c.TGroups, g)
	c.TSL[q] = append(c.TSL[q], g.ID)
}

// Validate checks internal consistency: line/CNOT ID ranges, TGroup line
// references, and that TSLs are ordered by Seq.
func (c *Circuit) Validate() error {
	for i, l := range c.Lines {
		if l.ID != i {
			return fmt.Errorf("line %d has ID %d", i, l.ID)
		}
	}
	for i, g := range c.CNOTs {
		if g.ID != i {
			return fmt.Errorf("cnot %d has ID %d", i, g.ID)
		}
		if g.Control < 0 || g.Control >= len(c.Lines) || g.Target < 0 || g.Target >= len(c.Lines) {
			return fmt.Errorf("cnot %d references missing line", i)
		}
		if g.Control == g.Target {
			return fmt.Errorf("cnot %d is a self-loop", i)
		}
	}
	for i, tg := range c.TGroups {
		if tg.ID != i {
			return fmt.Errorf("tgroup %d has ID %d", i, tg.ID)
		}
		if tg.ZMeasLine < 0 || tg.ZMeasLine >= len(c.Lines) {
			return fmt.Errorf("tgroup %d: bad Z line", i)
		}
		for _, l := range tg.TeleportLines {
			if l < 0 || l >= len(c.Lines) {
				return fmt.Errorf("tgroup %d: bad teleport line", i)
			}
		}
		if len(tg.CNOTs) != 6 {
			return fmt.Errorf("tgroup %d: %d CNOTs, want 6", i, len(tg.CNOTs))
		}
	}
	for q, ids := range c.TSL {
		for k, id := range ids {
			if id < 0 || id >= len(c.TGroups) {
				return fmt.Errorf("tsl[%d][%d]: bad group id %d", q, k, id)
			}
			tg := c.TGroups[id]
			if tg.Qubit != q {
				return fmt.Errorf("tsl[%d]: group %d belongs to qubit %d", q, id, tg.Qubit)
			}
			if tg.Seq != k {
				return fmt.Errorf("tsl[%d][%d]: group %d has Seq %d", q, k, id, tg.Seq)
			}
		}
	}
	return nil
}
