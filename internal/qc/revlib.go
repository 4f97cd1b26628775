package qc

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseReal parses a RevLib ".real" reversible circuit description.
//
// The subset supported covers the constructs used by the paper's
// benchmarks: the .version/.numvars/.variables/.inputs/.outputs/.constants/
// .garbage headers, the .begin/.end gate section, t<k> (multi-controlled
// Toffoli: t1 = NOT, t2 = CNOT, t3 = Toffoli), f<k> (multi-controlled
// Fredkin: f2 = SWAP, f3 = Fredkin) and the v/v+ controlled-sqrt-of-NOT
// gates (parsed as V on the target; RevLib writes them with one control,
// which we decompose later). Lines starting with '#' are comments.
func ParseReal(name string, r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	// Lines may run to 1 MiB (wide .variables headers); the buffer starts
	// small and grows only when a line needs it, so a small circuit costs
	// a few KiB to parse.
	sc.Buffer(nil, 1024*1024)
	c := &Circuit{Name: name}
	varIndex := map[string]int{}
	inBody := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key := strings.ToLower(fields[0])
		switch {
		case key == ".version", key == ".inputs", key == ".outputs",
			key == ".constants", key == ".garbage", key == ".inputbus",
			key == ".outputbus", key == ".define", key == ".module":
			// Metadata we do not need for layout synthesis.
		case key == ".numvars":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed .numvars", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("line %d: bad .numvars %q", lineNo, fields[1])
			}
			if len(c.Qubits) == 0 {
				for i := 0; i < n; i++ {
					c.Qubits = append(c.Qubits, fmt.Sprintf("x%d", i))
					varIndex[fmt.Sprintf("x%d", i)] = i
				}
			}
		case key == ".variables":
			c.Qubits = c.Qubits[:0]
			varIndex = map[string]int{}
			for _, v := range fields[1:] {
				varIndex[v] = len(c.Qubits)
				c.Qubits = append(c.Qubits, v)
			}
		case key == ".begin":
			inBody = true
		case key == ".end":
			inBody = false
		case strings.HasPrefix(key, "."):
			// Unknown directive: tolerate, RevLib has many dialects.
		default:
			if !inBody {
				return nil, fmt.Errorf("line %d: gate %q outside .begin/.end", lineNo, line)
			}
			g, err := parseRealGate(fields, varIndex)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			c.Gates = append(c.Gates, g)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(c.Qubits) == 0 {
		return nil, fmt.Errorf("no variables declared")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseRealGate(fields []string, varIndex map[string]int) (Gate, error) {
	mnemonic := strings.ToLower(fields[0])
	operands := make([]int, 0, len(fields)-1)
	for _, v := range fields[1:] {
		idx, ok := varIndex[v]
		if !ok {
			return Gate{}, fmt.Errorf("unknown variable %q", v)
		}
		operands = append(operands, idx)
	}
	switch {
	case strings.HasPrefix(mnemonic, "t"):
		k, err := strconv.Atoi(mnemonic[1:])
		if err != nil || k < 1 {
			return Gate{}, fmt.Errorf("bad toffoli mnemonic %q", mnemonic)
		}
		if len(operands) != k {
			return Gate{}, fmt.Errorf("%s: want %d operands, got %d", mnemonic, k, len(operands))
		}
		ctrls, tgt := operands[:k-1], operands[k-1]
		switch k {
		case 1:
			return NOT(tgt), nil
		case 2:
			return CNOT(ctrls[0], tgt), nil
		case 3:
			return Toffoli(ctrls[0], ctrls[1], tgt), nil
		default:
			return MCT(ctrls, tgt), nil
		}
	case strings.HasPrefix(mnemonic, "f"):
		k, err := strconv.Atoi(mnemonic[1:])
		if err != nil || k < 2 {
			return Gate{}, fmt.Errorf("bad fredkin mnemonic %q", mnemonic)
		}
		if len(operands) != k {
			return Gate{}, fmt.Errorf("%s: want %d operands, got %d", mnemonic, k, len(operands))
		}
		switch k {
		case 2:
			return Swap(operands[0], operands[1]), nil
		case 3:
			return Fredkin(operands[0], operands[1], operands[2]), nil
		default:
			return Gate{}, fmt.Errorf("fredkin with %d controls unsupported", k-2)
		}
	case mnemonic == "v", mnemonic == "v+":
		// RevLib's v gates carry one control and one target; we record the
		// controlled form as a Gate with a control so decompose can expand
		// it. An uncontrolled v acts on a single target.
		kind := GateV
		if mnemonic == "v+" {
			kind = GateVdag
		}
		switch len(operands) {
		case 1:
			return Gate{Kind: kind, Targets: operands}, nil
		case 2:
			return Gate{Kind: kind, Controls: operands[:1], Targets: operands[1:]}, nil
		default:
			return Gate{}, fmt.Errorf("v gate with %d operands unsupported", len(operands))
		}
	default:
		return Gate{}, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
}

// WriteReal writes the circuit in RevLib .real format. Only the reversible
// subset (NOT/CNOT/Toffoli/MCT/Fredkin/Swap) can be emitted; other kinds
// return an error.
func WriteReal(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".version 2.0\n.numvars %d\n.variables", len(c.Qubits))
	for _, q := range c.Qubits {
		fmt.Fprintf(bw, " %s", q)
	}
	fmt.Fprintf(bw, "\n.begin\n")
	for _, g := range c.Gates {
		switch g.Kind {
		case GateNOT, GateCNOT, GateToffoli, GateMCT:
			fmt.Fprintf(bw, "t%d", len(g.Controls)+1)
		case GateFredkin, GateSwap:
			fmt.Fprintf(bw, "f%d", len(g.Controls)+2)
		default:
			return fmt.Errorf("gate kind %v not representable in .real", g.Kind)
		}
		for _, q := range g.Qubits() {
			fmt.Fprintf(bw, " %s", c.Qubits[q])
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, ".end\n")
	return bw.Flush()
}
