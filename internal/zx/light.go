package zx

import (
	"fmt"
	"sort"

	"repro/internal/qc"
)

// The light rewrite path: same-color spider fusion and Hopf cancellation
// applied to the circuit-shaped ZX diagram *before* it is normalized to
// graph-like form. Every spider keeps its qubit wire and its position in
// the original gate list, so the simplified diagram reads back by a plain
// index sort instead of the frontier/Gauss extraction — no Hadamard
// dummies, no re-synthesized CNOT layer. The rules it can apply are a
// strict subset of the full system (phase folding through CNOT controls
// and targets, CNOT pair cancellation via the Hopf law, identity
// removal), but what they save they save without extraction overhead,
// which on circuit-shaped inputs is usually the better trade. Optimize
// prices this path against the graph-like one and keeps the cheaper.

// lnode is one spider on a qubit wire.
type lnode struct {
	kind  vkind // vZ (control/diagonal) or vX (target/antidiagonal)
	phase int   // π/4 units mod 8; X-spiders only ever hold even phases
	qubit int
	pos   int // original index of the node's earliest constituent gate
	prev  int // wire predecessor node id, -1 at the wire head
	next  int // wire successor node id, -1 at the wire tail
	live  bool
}

// ledge is one CNOT: a plain edge between a Z-spider (control wire) and
// an X-spider (target wire), remembering which gate it came from.
type ledge struct {
	z, x int // node ids
	idx  int // original gate index
	live bool
}

// ldiagram is the wire-structured diagram the light pass rewrites.
type ldiagram struct {
	nodes []lnode
	edges []ledge
	// byNode[v] lists edge ids incident to node v (stale entries are
	// filtered by the live flags).
	byNode [][]int
	heads  []int // first node id per wire, -1 for a bare wire
}

// buildLight translates a decomposed circuit into the wire-structured
// form. Unlike fromCircuit it performs no color change: X-spiders stay X.
func buildLight(c *qc.Circuit) (*ldiagram, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("zx: invalid circuit: %w", err)
	}
	n := c.NumQubits()
	d := &ldiagram{heads: make([]int, n)}
	tails := make([]int, n)
	for q := range d.heads {
		d.heads[q], tails[q] = -1, -1
	}
	app := func(q int, kind vkind, phase, pos int) int {
		id := len(d.nodes)
		d.nodes = append(d.nodes, lnode{
			kind: kind, phase: phase, qubit: q, pos: pos,
			prev: tails[q], next: -1, live: true,
		})
		d.byNode = append(d.byNode, nil)
		if tails[q] >= 0 {
			d.nodes[tails[q]].next = id
		} else {
			d.heads[q] = id
		}
		tails[q] = id
		return id
	}
	for i, g := range c.Gates {
		if len(g.Controls) > 0 && g.Kind != qc.GateCNOT {
			return nil, fmt.Errorf("zx: gate %d (%v): controlled gates other than CNOT must be decomposed first", i, g.Kind)
		}
		switch {
		case g.Kind == qc.GateCNOT:
			z := app(g.Controls[0], vZ, 0, i)
			x := app(g.Targets[0], vX, 0, i)
			eid := len(d.edges)
			d.edges = append(d.edges, ledge{z: z, x: x, idx: i, live: true})
			d.byNode[z] = append(d.byNode[z], eid)
			d.byNode[x] = append(d.byNode[x], eid)
		case zPhaseUnits(g.Kind) >= 0:
			app(g.Targets[0], vZ, zPhaseUnits(g.Kind), i)
		case xPhaseUnits(g.Kind) >= 0:
			app(g.Targets[0], vX, xPhaseUnits(g.Kind), i)
		default:
			return nil, fmt.Errorf("zx: gate %d: kind %v is not in the decomposed gate set", i, g.Kind)
		}
	}
	return d, nil
}

// liveEdges returns v's live incident edge ids, compacting the index.
func (d *ldiagram) liveEdges(v int) []int {
	out := d.byNode[v][:0]
	for _, e := range d.byNode[v] {
		if d.edges[e].live {
			out = append(out, e)
		}
	}
	d.byNode[v] = out
	return out
}

// fuseWire merges wire-adjacent same-color spiders (phases add, CNOT
// edges transfer) and cancels the parallel edge pairs fusion creates —
// two plain edges between a Z- and an X-spider vanish by the Hopf law,
// which is exactly the CNOT·CNOT = I cancellation. Returns rewrites done.
func (d *ldiagram) fuseWire(u int) int {
	count := 0
	for {
		v := d.nodes[u].next
		if v < 0 || d.nodes[v].kind != d.nodes[u].kind {
			return count
		}
		d.nodes[u].phase = (d.nodes[u].phase + d.nodes[v].phase) & 7
		for _, e := range d.liveEdges(v) {
			if d.edges[e].z == v {
				d.edges[e].z = u
			} else {
				d.edges[e].x = u
			}
			d.byNode[u] = append(d.byNode[u], e)
		}
		d.unlink(v)
		count++
		// Hopf: cancel duplicate edges to the same partner in pairs.
		partner := map[int]int{} // partner node -> last unmatched edge id
		for _, e := range d.liveEdges(u) {
			o := d.edges[e].z
			if o == u {
				o = d.edges[e].x
			}
			if prior, ok := partner[o]; ok {
				d.edges[prior].live = false
				d.edges[e].live = false
				delete(partner, o)
				count++
			} else {
				partner[o] = e
			}
		}
	}
}

// unlink removes node v from its wire, joining its neighbors.
func (d *ldiagram) unlink(v int) {
	p, n := d.nodes[v].prev, d.nodes[v].next
	if p >= 0 {
		d.nodes[p].next = n
	} else {
		d.heads[d.nodes[v].qubit] = n
	}
	if n >= 0 {
		d.nodes[n].prev = p
	}
	d.nodes[v].live = false
}

// simplifyLight runs fusion+Hopf and identity removal to a joint
// fixpoint. Dropping an identity makes its wire neighbors adjacent, which
// can enable another fusion, so the two sweeps alternate until quiet.
func (d *ldiagram) simplifyLight() int {
	rewrites := 0
	for {
		n := 0
		for q := range d.heads {
			for u := d.heads[q]; u >= 0; u = d.nodes[u].next {
				n += d.fuseWire(u)
			}
		}
		for v := range d.nodes {
			if d.nodes[v].live && d.nodes[v].phase == 0 && len(d.liveEdges(v)) == 0 {
				d.unlink(v)
				n++
			}
		}
		rewrites += n
		if n == 0 {
			return rewrites
		}
	}
}

// emit reads the simplified diagram back into a decomposed circuit. Every
// surviving CNOT edge keeps its original gate index and every phase run
// sits at its earliest constituent's index, so a stable index sort
// reproduces a valid ordering: the result is the original gate sequence
// minus the cancelled gates, with each folded phase at its run head
// (legal — a Z-phase commutes with the controls it fused through, an
// X-phase with the targets).
func (d *ldiagram) emit(orig *qc.Circuit) (*qc.Circuit, error) {
	type slot struct {
		idx   int
		gates []qc.Gate
	}
	var slots []slot
	for v := range d.nodes {
		nd := &d.nodes[v]
		if !nd.live || nd.phase == 0 {
			continue
		}
		var gs []qc.Gate
		if nd.kind == vZ {
			var err error
			gs, err = lowerZPhase(nd.qubit, nd.phase)
			if err != nil {
				return nil, err
			}
		} else {
			switch nd.phase & 7 {
			case 2:
				gs = []qc.Gate{qc.V(nd.qubit)}
			case 4:
				gs = []qc.Gate{qc.NOT(nd.qubit)}
			case 6:
				gs = []qc.Gate{vdag(nd.qubit)}
			default:
				return nil, fmt.Errorf("zx: odd X phase %d cannot appear on a wire spider", nd.phase)
			}
		}
		slots = append(slots, slot{idx: nd.pos, gates: gs})
	}
	for _, e := range d.edges {
		if e.live {
			slots = append(slots, slot{idx: e.idx, gates: []qc.Gate{
				qc.CNOT(d.nodes[e.z].qubit, d.nodes[e.x].qubit),
			}})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].idx < slots[j].idx })
	c := &qc.Circuit{
		Name:   orig.Name,
		Qubits: append([]string(nil), orig.Qubits...),
	}
	for _, s := range slots {
		c.Gates = append(c.Gates, s.gates...)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("zx: light-pass circuit invalid: %w", err)
	}
	return c, nil
}

// reduceLight runs the wire-structured pass end to end.
func reduceLight(c *qc.Circuit) (*qc.Circuit, int, error) {
	d, err := buildLight(c)
	if err != nil {
		return nil, 0, err
	}
	rewrites := d.simplifyLight()
	out, err := d.emit(c)
	if err != nil {
		return nil, rewrites, err
	}
	return out, rewrites, nil
}
