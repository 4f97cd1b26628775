package zx

import "fmt"

// The rewrite engine. Every rule below strictly decreases the number of
// live spiders, so the whole simplification terminates after at most
// spiderCount rewrites; a hard cap backstops that argument in case a rule
// is ever changed. Rules scan vertices in ascending ID order and always
// pick the lowest-ID match, so the rewrite sequence — and therefore the
// extracted circuit — is a deterministic function of the input circuit.
//
// All rules are optional: whenever applying one would create a shape the
// engine cannot represent (a mixed plain/Hadamard parallel edge) or would
// break an extraction precondition (two qubit wires sharing a frontier
// spider), the match is skipped rather than forced.

// simplify runs the full rewrite system to a fixpoint: fusion, identity
// removal and scalar cleanup to saturation, then a single local
// complementation or pivot, repeated until nothing fires. It returns the
// number of rewrites applied. The Clifford rules (local complementation
// and pivoting) remove more spiders than fusion alone, and more T-count
// via the phases they fold together, but leave a dense graph whose
// extraction re-synthesizes the CNOT layer, which can cost far more than
// the rewrites saved; Optimize therefore prices this pass against the
// wire-structured light pass and keeps whichever is cheaper.
func (d *diagram) simplify() (int, error) {
	rewrites := 0
	limit := 10*d.spiderCount() + 1000
	for {
		for {
			n1, err := d.fuseRound()
			if err != nil {
				return rewrites, err
			}
			n2, err := d.idRound()
			if err != nil {
				return rewrites, err
			}
			n3 := d.scalarRound()
			rewrites += n1 + n2 + n3
			if rewrites > limit {
				return rewrites, fmt.Errorf("zx: rewrite limit %d exceeded (non-terminating rule?)", limit)
			}
			if n1+n2+n3 == 0 {
				break
			}
		}
		ok, err := d.lcompOne()
		if err != nil {
			return rewrites, err
		}
		if !ok {
			ok, err = d.pivotOne()
			if err != nil {
				return rewrites, err
			}
		}
		if !ok {
			return rewrites, nil
		}
		rewrites++
		if rewrites > limit {
			return rewrites, fmt.Errorf("zx: rewrite limit %d exceeded (non-terminating rule?)", limit)
		}
	}
}

// bothTouch reports whether u and v each have a neighbor of boundary
// kind k. Fusing such a pair would let one spider serve as the frontier
// of two qubit wires, which the extractor forbids.
func (d *diagram) bothTouch(u, v int, k vkind) bool {
	return d.adjacentToKind(u, k) && d.adjacentToKind(v, k)
}

// canMergeEdges reports whether drop's edges can be transferred onto keep
// without creating a mixed parallel edge.
func (d *diagram) canMergeEdges(keep, drop int) bool {
	for m, ed := range d.adj[drop] {
		if m == keep {
			continue
		}
		if ek := d.edge(keep, m); ek != eNone && ek != ed {
			return false
		}
	}
	return true
}

// fuseRound fuses spiders connected by plain edges (phases add, edges
// merge under the Hopf/parallel laws) until no fusable pair remains, and
// returns the number of fusions performed.
func (d *diagram) fuseRound() (int, error) {
	count := 0
	for u := 0; u < len(d.kinds); u++ {
		if d.kinds[u] != vZ {
			continue
		}
		for again := true; again && d.kinds[u] == vZ; {
			again = false
			for _, m := range d.neighbors(u) {
				if d.kinds[m] != vZ || d.edge(u, m) != ePlain {
					continue
				}
				if d.bothTouch(u, m, vOut) || d.bothTouch(u, m, vIn) {
					continue
				}
				if !d.canMergeEdges(u, m) {
					continue
				}
				if err := d.fuse(u, m); err != nil {
					return count, err
				}
				count++
				again = true
				break
			}
		}
	}
	return count, nil
}

// fuse merges spider drop into spider keep across the plain edge between
// them. The caller has already checked canMergeEdges.
func (d *diagram) fuse(keep, drop int) error {
	d.addPhase(keep, d.phases[drop])
	ns := d.neighbors(drop)
	ks := make([]ekind, len(ns))
	for i, m := range ns {
		ks[i] = d.edge(drop, m)
	}
	d.removeVertex(drop)
	for i, m := range ns {
		if m == keep {
			continue
		}
		if err := d.connect(keep, m, ks[i]); err != nil {
			return err
		}
	}
	return nil
}

// idRound removes phase-0 degree-2 spiders, splicing their two edges into
// one whose type is the composition (Hadamard iff exactly one side was
// Hadamard). Matches are skipped when splicing would create a mixed
// parallel edge, give a qubit wire a second frontier spider, or join two
// boundaries of the same side.
func (d *diagram) idRound() (int, error) {
	count := 0
	for v := 0; v < len(d.kinds); v++ {
		if d.kinds[v] != vZ || d.phases[v] != 0 || d.degree(v) != 2 {
			continue
		}
		ns := d.neighbors(v)
		n1, n2 := ns[0], ns[1]
		t := ePlain
		if d.edge(v, n1) != d.edge(v, n2) {
			t = eHada
		}
		switch {
		case d.spider(n1) && d.spider(n2):
			if ex := d.edge(n1, n2); ex != eNone && ex != t {
				continue
			}
			d.removeVertex(v)
			if err := d.connect(n1, n2, t); err != nil {
				return count, err
			}
		case d.boundary(n1) && d.boundary(n2):
			if d.kinds[n1] == d.kinds[n2] {
				continue
			}
			d.removeVertex(v)
			d.setEdge(n1, n2, t)
		default:
			b, s := n1, n2
			if d.boundary(n2) {
				b, s = n2, n1
			}
			if d.adjacentToKind(s, d.kinds[b]) {
				continue
			}
			d.removeVertex(v)
			if err := d.connect(b, s, t); err != nil {
				return count, err
			}
		}
		count++
	}
	return count, nil
}

// scalarRound removes degree-0 spiders. A disconnected spider is a scalar
// factor of the diagram, and the pipeline compiles circuits up to global
// phase.
func (d *diagram) scalarRound() int {
	count := 0
	for v := 0; v < len(d.kinds); v++ {
		if d.spider(v) && d.degree(v) == 0 {
			d.removeVertex(v)
			count++
		}
	}
	return count
}

// allHadaSpiderNeighbors reports whether every edge at v is a Hadamard
// edge to a Z-spider — the "interior, graph-like" precondition shared by
// local complementation and pivoting.
func (d *diagram) allHadaSpiderNeighbors(v int) bool {
	for n, k := range d.adj[v] {
		if d.kinds[n] != vZ || k != eHada {
			return false
		}
	}
	return true
}

// lcompOne applies one local complementation: a ±π/2 interior spider v
// with all-Hadamard spider neighbors is deleted, its neighborhood is
// complemented, and each neighbor's phase decreases by v's phase. Skipped
// when any neighbor pair is joined by a plain edge (complementation only
// toggles Hadamard edges). Returns whether a rewrite fired.
func (d *diagram) lcompOne() (bool, error) {
	for v := 0; v < len(d.kinds); v++ {
		if d.kinds[v] != vZ {
			continue
		}
		if p := d.phases[v]; p != 2 && p != 6 {
			continue
		}
		if d.degree(v) == 0 || !d.allHadaSpiderNeighbors(v) {
			continue
		}
		ns := d.neighbors(v)
		clean := true
		for i := 0; i < len(ns) && clean; i++ {
			for j := i + 1; j < len(ns); j++ {
				if d.edge(ns[i], ns[j]) == ePlain {
					clean = false
					break
				}
			}
		}
		if !clean {
			continue
		}
		alpha := d.phases[v]
		d.removeVertex(v)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				d.toggleHada(ns[i], ns[j])
			}
			d.addPhase(ns[i], -alpha)
		}
		return true, nil
	}
	return false, nil
}

// pivotOne applies one pivot: two interior Pauli-phase (0 or π) spiders
// u, v joined by a Hadamard edge are deleted after complementing the
// three bipartite neighbor groups (exclusive-u, exclusive-v, common) and
// shifting phases — exclusive-u gains v's phase, exclusive-v gains u's,
// and common neighbors gain both plus π. Returns whether a rewrite fired.
func (d *diagram) pivotOne() (bool, error) {
	for u := 0; u < len(d.kinds); u++ {
		if d.kinds[u] != vZ {
			continue
		}
		if p := d.phases[u]; p != 0 && p != 4 {
			continue
		}
		for _, v := range d.neighbors(u) {
			if v < u || d.kinds[v] != vZ || d.edge(u, v) != eHada {
				continue
			}
			if p := d.phases[v]; p != 0 && p != 4 {
				continue
			}
			if !d.allHadaSpiderNeighbors(u) || !d.allHadaSpiderNeighbors(v) {
				continue
			}
			if d.pivotAt(u, v) {
				return true, nil
			}
		}
	}
	return false, nil
}

// pivotAt performs the pivot on the Hadamard edge u-v, or reports false
// when a plain edge inside the affected neighbor groups blocks it.
func (d *diagram) pivotAt(u, v int) bool {
	inU := map[int]bool{}
	for _, n := range d.neighbors(u) {
		if n != v {
			inU[n] = true
		}
	}
	inV := map[int]bool{}
	for _, n := range d.neighbors(v) {
		if n != u {
			inV[n] = true
		}
	}
	var a, b, c []int // exclusive-u, exclusive-v, common, each sorted
	for _, n := range d.neighbors(u) {
		if n == v {
			continue
		}
		if inV[n] {
			c = append(c, n)
		} else {
			a = append(a, n)
		}
	}
	for _, n := range d.neighbors(v) {
		if n != u && !inU[n] {
			b = append(b, n)
		}
	}
	groups := [3][2][]int{{a, b}, {a, c}, {b, c}}
	for _, g := range groups {
		for _, x := range g[0] {
			for _, y := range g[1] {
				if d.edge(x, y) == ePlain {
					return false
				}
			}
		}
	}
	pu, pv := d.phases[u], d.phases[v]
	d.removeVertex(u)
	d.removeVertex(v)
	for _, g := range groups {
		for _, x := range g[0] {
			for _, y := range g[1] {
				d.toggleHada(x, y)
			}
		}
	}
	for _, x := range a {
		d.addPhase(x, pv)
	}
	for _, x := range b {
		d.addPhase(x, pu)
	}
	for _, x := range c {
		d.addPhase(x, pu+pv+4)
	}
	return true
}
