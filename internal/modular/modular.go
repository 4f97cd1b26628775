// Package modular implements modularization (Asai & Yamashita; Section II-C
// of the paper): it derives, from the canonical geometric description of an
// ICM circuit, a set of primal-loop modules with enclosed dual segments,
// the dual loops penetrating them, and the pins through which dual-defect
// nets will later reconnect the loops.
//
// Derivation rules (documented in DESIGN.md):
//
//   - Each CNOT contributes one ancillary dual loop. In canonical form the
//     loop is a vertical ring at the CNOT's time slot spanning every line
//     between control and target inclusive; each crossed line is a
//     penetration whose dual segment is kept inside that line's module to
//     preserve the braiding relationship.
//   - Penetrations of one line at adjacent canonical slots are grouped into
//     a single module (a contiguous stretch of the line's primal loop);
//     penetrations separated by a slot gap start a new module.
//   - Each penetration is a dual segment with two pins (the points where
//     the segment leaves the primal loop).
//
// Modules additionally record the measurement/injection roles needed by
// module clustering: |Y⟩/|A⟩ injection sites and the modules carrying the
// time-ordered measurements of T-gate blocks.
package modular

import (
	"fmt"
	"sort"

	"repro/internal/canonical"
	"repro/internal/icm"
)

// ModuleKind classifies a module's special role, if any.
type ModuleKind int

// Module roles.
const (
	KindNormal  ModuleKind = iota
	KindInjectY            // first module of a |Y⟩-injected line
	KindInjectA            // first module of an |A⟩-injected line
)

// String returns a short mnemonic.
func (k ModuleKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindInjectY:
		return "injectY"
	case KindInjectA:
		return "injectA"
	}
	return fmt.Sprintf("ModuleKind(%d)", int(k))
}

// Pin is one end of a dual segment on a module boundary.
type Pin struct {
	ID      int
	Module  int // module ID
	Segment int // segment ID
	End     int // 0 or 1: which end of the segment
}

// Segment is the part of a dual loop kept inside one module.
type Segment struct {
	ID     int
	Loop   int // dual loop (CNOT) ID
	Module int
	Pins   [2]int // pin IDs
	// Removed is set by bridging when the loop reuses a shared segment
	// through this module instead of its own.
	Removed bool
}

// Module is a primal loop stretch enclosing dual segments.
type Module struct {
	ID   int
	Line int // originating ICM line
	Kind ModuleKind
	// SlotLo and SlotHi bound the canonical slots grouped into this
	// module (inclusive).
	SlotLo, SlotHi int
	// Segments are the dual segment IDs enclosed, in slot order.
	Segments []int
	// Index is this module's position among the line's modules.
	Index int
}

// Loop is one dual loop (one per CNOT).
type Loop struct {
	ID int // = CNOT ID
	// Modules lists penetrated modules in ring order (by line index).
	Modules []int
	// Segments lists the loop's segment IDs, parallel to Modules.
	Segments []int
}

// Netlist is the modularized circuit.
type Netlist struct {
	ICM      *icm.Circuit
	Canon    *canonical.Description
	Modules  []Module
	Segments []Segment
	Pins     []Pin
	Loops    []Loop
	// ModulesOfLine indexes modules by originating line, in slot order.
	ModulesOfLine [][]int
	// ZMeasModule maps each TGroup ID to the module carrying the group's
	// first (Z-basis) measurement: the last module of the consumed line.
	ZMeasModule []int
	// TeleportModules maps each TGroup ID to the modules carrying its
	// four selective teleportation measurements.
	TeleportModules [][4]int
}

// Build modularizes the canonical description: penetrations of one line
// at adjacent canonical slots share a module.
func Build(d *canonical.Description) (*Netlist, error) {
	ic := d.ICM
	nl := &Netlist{ICM: ic, Canon: d, ModulesOfLine: make([][]int, len(ic.Lines))}

	// Collect penetrations per line: (slot, loop) pairs.
	type pen struct{ slot, loop int }
	perLine := make([][]pen, len(ic.Lines))
	for id := range ic.CNOTs {
		for _, line := range d.Penetrations(id) {
			perLine[line] = append(perLine[line], pen{slot: d.Slot[id], loop: id})
		}
	}

	// Group per-line penetrations at adjacent slots into modules.
	loopSegs := make(map[int][]int) // loop -> segment IDs in creation order
	for line := range perLine {
		pens := perLine[line]
		sort.Slice(pens, func(i, j int) bool { return pens[i].slot < pens[j].slot })
		var cur *Module
		for _, p := range pens {
			if cur == nil || p.slot > cur.SlotHi+1 {
				id := len(nl.Modules)
				nl.Modules = append(nl.Modules, Module{
					ID:     id,
					Line:   line,
					Kind:   KindNormal,
					SlotLo: p.slot,
					SlotHi: p.slot,
					Index:  len(nl.ModulesOfLine[line]),
				})
				nl.ModulesOfLine[line] = append(nl.ModulesOfLine[line], id)
				cur = &nl.Modules[id]
			} else {
				cur.SlotHi = p.slot
			}
			segID := len(nl.Segments)
			p0 := nl.newPin(cur.ID, segID, 0)
			p1 := nl.newPin(cur.ID, segID, 1)
			nl.Segments = append(nl.Segments, Segment{
				ID:     segID,
				Loop:   p.loop,
				Module: cur.ID,
				Pins:   [2]int{p0, p1},
			})
			cur.Segments = append(cur.Segments, segID)
			loopSegs[p.loop] = append(loopSegs[p.loop], segID)
		}
	}

	// Assemble loops in ring order (ascending line, which is the order the
	// segments were created in since lines are processed in order).
	nl.Loops = make([]Loop, len(ic.CNOTs))
	for id := range ic.CNOTs {
		l := Loop{ID: id}
		for _, segID := range loopSegs[id] {
			l.Segments = append(l.Segments, segID)
			l.Modules = append(l.Modules, nl.Segments[segID].Module)
		}
		nl.Loops[id] = l
	}

	// Mark injection modules: the first module of each injected line.
	for _, line := range ic.Lines {
		mods := nl.ModulesOfLine[line.ID]
		if len(mods) == 0 {
			continue
		}
		switch line.Init {
		case icm.InjectY:
			nl.Modules[mods[0]].Kind = KindInjectY
		case icm.InjectA:
			nl.Modules[mods[0]].Kind = KindInjectA
		}
	}

	// Resolve measurement modules for T groups: a line's measurement
	// happens at its end, i.e. in its last module.
	nl.ZMeasModule = make([]int, len(ic.TGroups))
	nl.TeleportModules = make([][4]int, len(ic.TGroups))
	for gi, tg := range ic.TGroups {
		zm, err := nl.lastModuleOf(tg.ZMeasLine)
		if err != nil {
			return nil, fmt.Errorf("modular: tgroup %d: %w", gi, err)
		}
		nl.ZMeasModule[gi] = zm
		for k, lineID := range tg.TeleportLines {
			m, err := nl.lastModuleOf(lineID)
			if err != nil {
				return nil, fmt.Errorf("modular: tgroup %d: %w", gi, err)
			}
			nl.TeleportModules[gi][k] = m
		}
	}
	return nl, nil
}

func (nl *Netlist) newPin(module, segment, end int) int {
	id := len(nl.Pins)
	nl.Pins = append(nl.Pins, Pin{ID: id, Module: module, Segment: segment, End: end})
	return id
}

func (nl *Netlist) lastModuleOf(line int) (int, error) {
	mods := nl.ModulesOfLine[line]
	if len(mods) == 0 {
		return 0, fmt.Errorf("line %d has no modules (no CNOT touches it)", line)
	}
	return mods[len(mods)-1], nil
}

// LiveSegments returns the number of segments not removed by bridging.
func (nl *Netlist) LiveSegments() int {
	n := 0
	for _, s := range nl.Segments {
		if !s.Removed {
			n++
		}
	}
	return n
}

// LiveSegmentsOf returns the non-removed segment IDs of module m, in slot
// order.
func (nl *Netlist) LiveSegmentsOf(m int) []int {
	var out []int
	for _, segID := range nl.Modules[m].Segments {
		if !nl.Segments[segID].Removed {
			out = append(out, segID)
		}
	}
	return out
}

// CommonModules returns the modules penetrated by both loops, in ring
// order of loop a.
func (nl *Netlist) CommonModules(a, b int) []int {
	inB := map[int]bool{}
	for _, m := range nl.Loops[b].Modules {
		inB[m] = true
	}
	var out []int
	for _, m := range nl.Loops[a].Modules {
		if inB[m] {
			out = append(out, m)
		}
	}
	return out
}

// RelativeLoops returns, for each loop, the set of other loops sharing at
// least one module (its "relative loops", Section III-B), as adjacency
// lists keyed by loop ID.
func (nl *Netlist) RelativeLoops() [][]int {
	loopsOfModule := make([][]int, len(nl.Modules))
	for _, l := range nl.Loops {
		for _, m := range l.Modules {
			loopsOfModule[m] = append(loopsOfModule[m], l.ID)
		}
	}
	seen := make([]map[int]bool, len(nl.Loops))
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	out := make([][]int, len(nl.Loops))
	for _, loops := range loopsOfModule {
		for i := 0; i < len(loops); i++ {
			for j := i + 1; j < len(loops); j++ {
				a, b := loops[i], loops[j]
				if a == b || seen[a][b] {
					continue
				}
				seen[a][b], seen[b][a] = true, true
				out[a] = append(out[a], b)
				out[b] = append(out[b], a)
			}
		}
	}
	return out
}

// Validate checks structural invariants: segment/pin back-references, loop
// ring order, and module slot grouping.
func (nl *Netlist) Validate() error {
	for i, p := range nl.Pins {
		if p.ID != i {
			return fmt.Errorf("pin %d has ID %d", i, p.ID)
		}
		if p.Segment < 0 || p.Segment >= len(nl.Segments) {
			return fmt.Errorf("pin %d: bad segment", i)
		}
		if nl.Segments[p.Segment].Pins[p.End] != i {
			return fmt.Errorf("pin %d: segment back-reference broken", i)
		}
	}
	for i, s := range nl.Segments {
		if s.ID != i {
			return fmt.Errorf("segment %d has ID %d", i, s.ID)
		}
		if s.Module < 0 || s.Module >= len(nl.Modules) {
			return fmt.Errorf("segment %d: bad module", i)
		}
		if s.Loop < 0 || s.Loop >= len(nl.Loops) {
			return fmt.Errorf("segment %d: bad loop", i)
		}
	}
	for i, m := range nl.Modules {
		if m.ID != i {
			return fmt.Errorf("module %d has ID %d", i, m.ID)
		}
		if m.SlotHi < m.SlotLo {
			return fmt.Errorf("module %d: inverted slots", i)
		}
		for _, segID := range m.Segments {
			if nl.Segments[segID].Module != i {
				return fmt.Errorf("module %d: segment %d back-reference broken", i, segID)
			}
		}
	}
	for i, l := range nl.Loops {
		if l.ID != i {
			return fmt.Errorf("loop %d has ID %d", i, l.ID)
		}
		if len(l.Modules) != len(l.Segments) {
			return fmt.Errorf("loop %d: modules/segments length mismatch", i)
		}
		if len(l.Modules) == 0 {
			return fmt.Errorf("loop %d penetrates no module", i)
		}
		for k, segID := range l.Segments {
			s := nl.Segments[segID]
			if s.Loop != i {
				return fmt.Errorf("loop %d: segment %d belongs to loop %d", i, segID, s.Loop)
			}
			if s.Module != l.Modules[k] {
				return fmt.Errorf("loop %d: ring order broken at %d", i, k)
			}
		}
	}
	return nil
}

// Stats summarizes the modularization for Table I.
type Stats struct {
	Modules  int
	Segments int
	Loops    int
	Pins     int
}

// Stats tallies the netlist.
func (nl *Netlist) Stats() Stats {
	return Stats{
		Modules:  len(nl.Modules),
		Segments: len(nl.Segments),
		Loops:    len(nl.Loops),
		Pins:     len(nl.Pins),
	}
}
