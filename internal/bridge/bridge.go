// Package bridge implements the paper's core contribution: the iterative
// bridging algorithm (Algorithm 1, Section III-B) that merges dual loops
// into bridge structures along continuous common segments, plus the
// post-bridging generation of dual-defect nets.
//
// A bridge may be added between two disjoint same-type defect structures
// and merges them along one continuous common segment — the segments of the
// two structures passing through the same modules in the same order. Each
// loop maintains a set of chains (pin sequences); initially every
// penetrated module contributes a two-pin chain. Merging loop l_e into
// bridge structure b:
//
//  1. builds the bridge graph G_{b,l_e}: vertices are the pins of the
//     common modules (one representative dual segment per module) plus the
//     endpoint pins shared by chains of different loops in b; edges connect
//     endpoints of different chains within a loop (possible new
//     connections) and consecutive pins within a chain (existing
//     connections);
//  2. fixes a connecting order of the critical vertices (the common-module
//     pins, visited pairwise consecutively);
//  3. searches a simple path through G visiting the critical vertices in
//     order; and
//  4. accepts the path only if it preserves the reconstructability of every
//     loop in b (no chain is closed into a premature cycle).
//
// On success the path becomes the continuous common segment: chains of b's
// loops along it are joined, the path becomes a chain of l_e, and l_e's own
// dual segments in the common modules are removed (the compression).
package bridge

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/modular"
)

// Chain is a pin sequence owned by one loop. Pins may be shared with
// chains of other loops after bridging (common segments).
type Chain struct {
	Pins []int
}

func (c *Chain) head() int { return c.Pins[0] }
func (c *Chain) tail() int { return c.Pins[len(c.Pins)-1] }

// Structure is one bridge structure: a set of merged loops.
type Structure struct {
	ID    int
	Loops []int
	// RepSeg maps each penetrated module to the representative dual
	// segment shared there.
	RepSeg map[int]int
}

// Net is one dual-defect net to be routed between two pins.
type Net struct {
	ID   int
	PinA int
	PinB int
	Loop int // owning dual loop
}

// Result carries the outcome of iterative bridging.
type Result struct {
	NL         *modular.Netlist
	Structures []Structure
	// Chains holds each loop's final chain set.
	Chains [][]*Chain
	Nets   []Net
	// Merges counts successful bridge additions.
	Merges int
	// RemovedSegments counts dual segments eliminated by sharing.
	RemovedSegments int
}

// maxCommonModules caps the exhaustive critical-vertex ordering search;
// merges with more common modules than this are rejected (they essentially
// never occur in practice).
const maxCommonModules = 8

// searchPollSteps is how many DFS steps searchPath takes between
// cancellation polls: a single merge attempt can explore exponentially
// many partial paths, so polling between merge candidates alone would let
// one attempt outlive its deadline by seconds.
const searchPollSteps = 1024

// Run executes Algorithm 1 on the netlist. When enabled is false it skips
// all merging and only generates the unbridged nets (the "w/o bridging"
// ablation of Table V).
func Run(nl *modular.Netlist, enabled bool) (*Result, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; RunContext is the threaded variant
	return RunContext(context.Background(), nl, enabled)
}

// RunContext is Run with cooperative cancellation: the iterative merging
// loop polls ctx between merge candidates and every searchPollSteps steps
// of a path search, and aborts with an error wrapping faults.ErrCanceled.
func RunContext(ctx context.Context, nl *modular.Netlist, enabled bool) (*Result, error) {
	if err := faults.Canceled(ctx); err != nil {
		return nil, fmt.Errorf("bridge: %w", err)
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("bridge: %w", err)
	}
	r := &Result{NL: nl, Chains: make([][]*Chain, len(nl.Loops))}
	// Initial chains: one two-pin chain per penetrated module.
	for i, l := range nl.Loops {
		for _, segID := range l.Segments {
			s := nl.Segments[segID]
			r.Chains[i] = append(r.Chains[i], &Chain{Pins: []int{s.Pins[0], s.Pins[1]}})
		}
	}

	if enabled {
		if err := r.runIterativeBridging(ctx); err != nil {
			return nil, err
		}
	} else {
		// Each loop is its own singleton structure.
		for i := range nl.Loops {
			st := Structure{ID: len(r.Structures), Loops: []int{i}, RepSeg: map[int]int{}}
			for k, m := range nl.Loops[i].Modules {
				st.RepSeg[m] = nl.Loops[i].Segments[k]
			}
			r.Structures = append(r.Structures, st)
		}
	}
	r.generateNets()
	return r, nil
}

// loopPQ is the max-priority queue of candidate loops keyed by the number
// of common modules with the current bridge structure.
type loopPQ struct {
	items []pqItem
	pos   map[int]int // loop -> index in items
}

type pqItem struct {
	loop int
	key  int
}

func (q *loopPQ) Len() int { return len(q.items) }
func (q *loopPQ) Less(i, j int) bool {
	if q.items[i].key != q.items[j].key {
		return q.items[i].key > q.items[j].key
	}
	return q.items[i].loop < q.items[j].loop
}
func (q *loopPQ) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i].loop] = i
	q.pos[q.items[j].loop] = j
}
func (q *loopPQ) Push(x any) {
	it := x.(pqItem)
	q.pos[it.loop] = len(q.items)
	q.items = append(q.items, it)
}
func (q *loopPQ) Pop() any {
	it := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	delete(q.pos, it.loop)
	return it
}

// runIterativeBridging is Algorithm 1. The context is polled between
// merge candidates and inside each candidate's path search, so
// cancellation aborts within searchPollSteps DFS steps.
func (r *Result) runIterativeBridging(ctx context.Context) error {
	nl := r.NL
	processed := make([]bool, len(nl.Loops))
	relatives := nl.RelativeLoops()

	for seed := range nl.Loops {
		if err := faults.Canceled(ctx); err != nil {
			return fmt.Errorf("bridge: %w", err)
		}
		if processed[seed] {
			continue
		}
		// Initialize bridge structure b with the seed loop (line 4).
		st := Structure{ID: len(r.Structures), Loops: []int{seed}, RepSeg: map[int]int{}}
		for k, m := range nl.Loops[seed].Modules {
			st.RepSeg[m] = nl.Loops[seed].Segments[k]
		}
		processed[seed] = true

		// Push unprocessed relatives keyed by common-module count (lines 5-6).
		q := &loopPQ{pos: map[int]int{}}
		rejected := map[int]bool{}
		for _, rel := range relatives[seed] {
			if !processed[rel] {
				heap.Push(q, pqItem{loop: rel, key: r.commonModuleCount(&st, rel)})
			}
		}

		for q.Len() > 0 {
			if err := faults.Canceled(ctx); err != nil {
				return fmt.Errorf("bridge: %w", err)
			}
			le := heap.Pop(q).(pqItem).loop
			if processed[le] || rejected[le] {
				continue
			}
			merged, err := r.tryMerge(ctx, &st, le)
			if err != nil {
				return fmt.Errorf("bridge: %w", err)
			}
			if merged {
				processed[le] = true
				r.Merges++
				// Push l_e's unprocessed relatives (line 15) and refresh
				// keys of queued loops (line 16).
				for _, rel := range relatives[le] {
					if !processed[rel] && !rejected[rel] {
						if _, in := q.pos[rel]; !in {
							heap.Push(q, pqItem{loop: rel, key: r.commonModuleCount(&st, rel)})
						}
					}
				}
				for i := range q.items {
					q.items[i].key = r.commonModuleCount(&st, q.items[i].loop)
				}
				heap.Init(q)
			} else {
				// A failed candidate is never re-queued this iteration
				// (Section III-B).
				rejected[le] = true
			}
		}
		r.Structures = append(r.Structures, st)
	}
	return nil
}

// commonModuleCount returns |modules(b) ∩ modules(le)|.
func (r *Result) commonModuleCount(st *Structure, le int) int {
	n := 0
	for _, m := range r.NL.Loops[le].Modules {
		if _, ok := st.RepSeg[m]; ok {
			n++
		}
	}
	return n
}

// commonModules returns modules(b) ∩ modules(le) in le's ring order.
func (r *Result) commonModules(st *Structure, le int) []int {
	var out []int
	for _, m := range r.NL.Loops[le].Modules {
		if _, ok := st.RepSeg[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// tryMerge attempts to merge loop le into structure st: bridge graph
// construction, critical-vertex ordering, path search, reconstructability
// check, and chain update (lines 10-17 of Algorithm 1). It fails only when
// ctx dies during the path search.
func (r *Result) tryMerge(ctx context.Context, st *Structure, le int) (bool, error) {
	common := r.commonModules(st, le)
	if len(common) == 0 || len(common) > maxCommonModules {
		return false, nil
	}
	g := r.buildBridgeGraph(st, common)
	path, err := r.findCriticalPath(ctx, g, st, common)
	if err != nil || path == nil {
		return false, err
	}
	r.applyMerge(st, le, common, path)
	return true, nil
}

// bridgeGraph is G_{b,l_e}.
type bridgeGraph struct {
	vertices map[int]bool
	adj      map[int][]int
	// consecutive marks existing chain edges (unordered pin pairs).
	consecutive map[[2]int]bool
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// buildBridgeGraph constructs vertices and edges per Section III-B.
func (r *Result) buildBridgeGraph(st *Structure, common []int) *bridgeGraph {
	nl := r.NL
	g := &bridgeGraph{
		vertices:    map[int]bool{},
		adj:         map[int][]int{},
		consecutive: map[[2]int]bool{},
	}
	// Vertex rule 1: pins of the representative segment of each common
	// module.
	for _, m := range common {
		seg := nl.Segments[st.RepSeg[m]]
		g.vertices[seg.Pins[0]] = true
		g.vertices[seg.Pins[1]] = true
	}
	// Vertex rule 2: endpoint pins shared by chains of different loops in
	// b. Collect endpoint usage across b's loops.
	usage := map[int]map[int]bool{} // pin -> set of loops having it as a chain endpoint
	for _, lp := range st.Loops {
		for _, c := range r.Chains[lp] {
			for _, p := range []int{c.head(), c.tail()} {
				if usage[p] == nil {
					usage[p] = map[int]bool{}
				}
				usage[p][lp] = true
			}
		}
	}
	for p, loops := range usage {
		if len(loops) >= 2 {
			g.vertices[p] = true
		}
	}

	addEdge := func(u, v int) {
		if u == v {
			return
		}
		k := pairKey(u, v)
		if g.consecutive[k] {
			return
		}
		for _, w := range g.adj[u] {
			if w == v {
				return
			}
		}
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}

	for _, lp := range st.Loops {
		chains := r.Chains[lp]
		// Edge rule 2: consecutive pins within a chain, both vertices.
		for _, c := range chains {
			for i := 1; i < len(c.Pins); i++ {
				u, v := c.Pins[i-1], c.Pins[i]
				if g.vertices[u] && g.vertices[v] {
					g.consecutive[pairKey(u, v)] = true
					g.adj[u] = append(g.adj[u], v)
					g.adj[v] = append(g.adj[v], u)
				}
			}
		}
		// Edge rule 1: endpoints of different chains within the loop.
		for i := 0; i < len(chains); i++ {
			for j := i + 1; j < len(chains); j++ {
				for _, u := range []int{chains[i].head(), chains[i].tail()} {
					for _, v := range []int{chains[j].head(), chains[j].tail()} {
						if g.vertices[u] && g.vertices[v] {
							addEdge(u, v)
						}
					}
				}
			}
		}
	}
	// Deduplicate adjacency lists (rule 1 and rule 2 may both add).
	for u := range g.adj {
		seen := map[int]bool{}
		kept := g.adj[u][:0]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				kept = append(kept, v)
			}
		}
		g.adj[u] = kept
	}
	return g
}

// findCriticalPath searches a simple path visiting the critical vertices
// (the representative pin pairs of the common modules) pairwise in order.
// It tries module orderings (all permutations for ≤4 common modules,
// otherwise the ring order and its reverse) and both pin directions per
// module, returning the first valid path, or the cancellation error when
// ctx dies mid-search.
func (r *Result) findCriticalPath(ctx context.Context, g *bridgeGraph, st *Structure, common []int) ([]int, error) {
	orders := moduleOrders(common)
	nl := r.NL
	for _, order := range orders {
		// Pin direction choices per module: iterate 2^k bitmasks.
		k := len(order)
		for mask := 0; mask < 1<<k; mask++ {
			var criticals []int
			for i, m := range order {
				seg := nl.Segments[st.RepSeg[m]]
				a, b := seg.Pins[0], seg.Pins[1]
				if mask&(1<<i) != 0 {
					a, b = b, a
				}
				criticals = append(criticals, a, b)
			}
			path, err := searchPath(ctx, g, criticals)
			if err != nil {
				return nil, err
			}
			if path != nil && r.pathValid(st, path) {
				return path, nil
			}
		}
	}
	return nil, nil
}

// moduleOrders enumerates candidate connecting orders of the common
// modules.
func moduleOrders(common []int) [][]int {
	if len(common) <= 1 {
		return [][]int{append([]int(nil), common...)}
	}
	if len(common) <= 4 {
		return permutations(common)
	}
	fwd := append([]int(nil), common...)
	rev := make([]int, len(common))
	for i, m := range common {
		rev[len(common)-1-i] = m
	}
	return [][]int{fwd, rev}
}

func permutations(xs []int) [][]int {
	var out [][]int
	var rec func(cur []int, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, xs)
	return out
}

// searchPath finds a simple path through g visiting criticals in order;
// non-critical vertices may be interleaved. Returns nil if none exists.
// The DFS polls ctx every searchPollSteps steps and returns the
// cancellation error once it is dead; polling never changes the search
// order.
func searchPath(ctx context.Context, g *bridgeGraph, criticals []int) ([]int, error) {
	if len(criticals) == 0 {
		return nil, nil
	}
	isCritical := map[int]int{} // vertex -> index in criticals
	for i, c := range criticals {
		if _, dup := isCritical[c]; dup {
			return nil, nil // degenerate: same pin twice in the order
		}
		isCritical[c] = i
	}
	start := criticals[0]
	if !g.vertices[start] {
		return nil, nil
	}
	visited := map[int]bool{start: true}
	path := []int{start}
	steps := 0
	var canceled error
	var dfs func(v, nextIdx int) bool
	dfs = func(v, nextIdx int) bool {
		if steps++; steps%searchPollSteps == 0 {
			if canceled = faults.Canceled(ctx); canceled != nil {
				return true // unwind at once; canceled is reported below
			}
		}
		if nextIdx == len(criticals) {
			return true
		}
		for _, w := range g.adj[v] {
			if visited[w] {
				continue
			}
			if ci, crit := isCritical[w]; crit {
				if ci != nextIdx {
					continue // critical vertex out of order
				}
				visited[w] = true
				path = append(path, w)
				if dfs(w, nextIdx+1) {
					return true
				}
				path = path[:len(path)-1]
				delete(visited, w)
			} else {
				visited[w] = true
				path = append(path, w)
				if dfs(w, nextIdx) {
					return true
				}
				path = path[:len(path)-1]
				delete(visited, w)
			}
		}
		return false
	}
	if !dfs(start, 1) {
		return nil, nil
	}
	if canceled != nil {
		return nil, canceled
	}
	return append([]int(nil), path...), nil
}

// pathValid checks that applying the path's new connections preserves the
// reconstructability of every loop in b. It simulates, on cloned chain
// lists, exactly the joins applyMerge would perform — the same selection
// rule, applied to the evolving (not the pre-path) chain state — and
// rejects the path if any implied join would close a chain into a
// premature cycle or revisit a pin. Validating against a snapshot of the
// endpoints instead used to diverge from applyMerge whenever chains
// shared endpoints or a path vertex was consumed by an earlier join.
func (r *Result) pathValid(st *Structure, path []int) bool {
	sim := map[int][]*Chain{}
	for _, lp := range st.Loops {
		cl := make([]*Chain, len(r.Chains[lp]))
		for i, c := range r.Chains[lp] {
			cl[i] = &Chain{Pins: append([]int(nil), c.Pins...)}
		}
		sim[lp] = cl
	}
	for i := 1; i < len(path); i++ {
		u, v := path[i-1], path[i]
		for _, lp := range st.Loops {
			chains, ok := joinChains(sim[lp], u, v)
			if !ok {
				return false
			}
			sim[lp] = chains
		}
	}
	return true
}

// applyMerge commits the bridge: joins chains of b's loops along the path,
// installs the path as a chain of le, removes le's own segments in the
// common modules, and extends the structure.
func (r *Result) applyMerge(st *Structure, le int, common []int, path []int) {
	nl := r.NL
	commonSet := map[int]bool{}
	for _, m := range common {
		commonSet[m] = true
	}

	// Join chains of every loop in b along the path's new connections.
	for i := 1; i < len(path); i++ {
		u, v := path[i-1], path[i]
		for _, lp := range st.Loops {
			r.joinChainsAt(lp, u, v)
		}
	}

	// le: drop its chains in common modules, remove those segments, and
	// install the path as its new chain.
	var kept []*Chain
	for _, c := range r.Chains[le] {
		if r.chainModule(c) >= 0 && commonSet[r.chainModule(c)] {
			continue
		}
		kept = append(kept, c)
	}
	for k, m := range nl.Loops[le].Modules {
		if commonSet[m] {
			segID := nl.Loops[le].Segments[k]
			if !nl.Segments[segID].Removed {
				nl.Segments[segID].Removed = true
				r.RemovedSegments++
			}
		}
	}
	r.Chains[le] = append(kept, &Chain{Pins: append([]int(nil), path...)})

	// Extend the structure with le and its non-common modules.
	st.Loops = append(st.Loops, le)
	for k, m := range nl.Loops[le].Modules {
		if _, ok := st.RepSeg[m]; !ok {
			st.RepSeg[m] = nl.Loops[le].Segments[k]
		}
	}
}

// chainModule returns the module of a two-pin initial chain, or -1 for
// longer (already merged) chains.
func (r *Result) chainModule(c *Chain) int {
	if len(c.Pins) != 2 {
		return -1
	}
	s0 := r.NL.Pins[c.Pins[0]].Segment
	s1 := r.NL.Pins[c.Pins[1]].Segment
	if s0 != s1 {
		return -1
	}
	return r.NL.Segments[s0].Module
}

// joinChainsAt joins the two chains of loop lp ending at pins u and v, if
// the connection is new for that loop. Paths are pre-screened by
// pathValid with the same joinChains routine, so an illegal join here
// means the caller skipped validation; the loop's chains are then left
// untouched rather than corrupted.
func (r *Result) joinChainsAt(lp, u, v int) {
	if chains, ok := joinChains(r.Chains[lp], u, v); ok {
		r.Chains[lp] = chains
	}
}

// joinChains applies one new connection (u, v) to a loop's chain list and
// returns the updated list. The connection is a no-op (ok=true, list
// unchanged) when it already exists inside a chain or when the loop does
// not have both u and v as chain endpoints. Otherwise the first pair of
// distinct chains ending at u and v whose concatenation stays a simple
// open path is joined; if every candidate pair would close a cycle or
// revisit a pin — e.g. two chains sharing both endpoints — the join is
// illegal and ok=false, so callers can reject the bridge path instead of
// producing an unreconstructable chain set.
func joinChains(chains []*Chain, u, v int) ([]*Chain, bool) {
	var us, vs []*Chain
	for _, c := range chains {
		// Existing connection inside one chain: nothing to do.
		for i := 1; i < len(c.Pins); i++ {
			if (c.Pins[i-1] == u && c.Pins[i] == v) || (c.Pins[i-1] == v && c.Pins[i] == u) {
				return chains, true
			}
		}
		if c.head() == u || c.tail() == u {
			us = append(us, c)
		}
		if c.head() == v || c.tail() == v {
			vs = append(vs, c)
		}
	}
	if len(us) == 0 || len(vs) == 0 {
		return chains, true // connection does not concern this loop
	}
	for _, cu := range us {
		for _, cv := range vs {
			joined, ok := joinPair(cu, cv, u, v)
			if !ok {
				continue
			}
			kept := make([]*Chain, 0, len(chains)-1)
			for _, c := range chains {
				if c != cu && c != cv {
					kept = append(kept, c)
				}
			}
			return append(kept, joined), true
		}
	}
	return chains, false // only cycle-closing or pin-repeating joins exist
}

// joinPair concatenates cu (oriented to end at u) with cv (oriented to
// start at v). It refuses self-joins and any result that is not a simple
// open path.
func joinPair(cu, cv *Chain, u, v int) (*Chain, bool) {
	if cu == cv {
		return nil, false
	}
	a := append([]int(nil), cu.Pins...)
	if a[len(a)-1] != u {
		reverseInts(a)
	}
	b := append([]int(nil), cv.Pins...)
	if b[0] != v {
		reverseInts(b)
	}
	pins := append(a, b...)
	seen := make(map[int]bool, len(pins))
	for _, p := range pins {
		if seen[p] {
			return nil, false
		}
		seen[p] = true
	}
	return &Chain{Pins: pins}, true
}

func reverseInts(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// generateNets reconstructs every loop from its chains: chains are ordered
// along the loop's module ring and connected cyclically; duplicate nets
// (identical pin pairs from shared chains) are emitted once.
func (r *Result) generateNets() {
	nl := r.NL
	ringIndex := func(lp int, c *Chain) int {
		// Position of the chain's first pin's module in the loop ring;
		// chains over foreign modules (shared segments) sort by the first
		// of the loop's own modules they coincide with, else 0.
		best := 1 << 30
		modulePos := map[int]int{}
		for k, m := range nl.Loops[lp].Modules {
			modulePos[m] = k
		}
		for _, p := range c.Pins {
			m := nl.Segments[nl.Pins[p].Segment].Module
			if pos, ok := modulePos[m]; ok && pos < best {
				best = pos
			}
		}
		if best == 1<<30 {
			return 0
		}
		return best
	}
	seen := map[[2]int]bool{}
	for lp := range nl.Loops {
		chains := append([]*Chain(nil), r.Chains[lp]...)
		sort.SliceStable(chains, func(i, j int) bool {
			return ringIndex(lp, chains[i]) < ringIndex(lp, chains[j])
		})
		n := len(chains)
		if n == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			a := chains[i].tail()
			b := chains[(i+1)%n].head()
			if n == 1 {
				// Single chain: close it tail to head.
				a, b = chains[0].tail(), chains[0].head()
			}
			if a == b {
				continue
			}
			k := pairKey(a, b)
			if seen[k] {
				continue
			}
			seen[k] = true
			r.Nets = append(r.Nets, Net{ID: len(r.Nets), PinA: a, PinB: b, Loop: lp})
		}
	}
}

// FriendGroups returns, for every pin shared by at least two nets, the IDs
// of the nets sharing it (Section III-D2: such nets are friend nets with
// respect to that pin).
func (r *Result) FriendGroups() map[int][]int {
	byPin := map[int][]int{}
	for _, n := range r.Nets {
		byPin[n.PinA] = append(byPin[n.PinA], n.ID)
		byPin[n.PinB] = append(byPin[n.PinB], n.ID)
	}
	out := map[int][]int{}
	for pin, nets := range byPin {
		if len(nets) >= 2 {
			out[pin] = nets
		}
	}
	return out
}

// Stats summarizes the bridging outcome.
type Stats struct {
	Structures      int
	Merges          int
	Nets            int
	RemovedSegments int
	LiveSegments    int
}

// Stats tallies the result.
func (r *Result) Stats() Stats {
	return Stats{
		Structures:      len(r.Structures),
		Merges:          r.Merges,
		Nets:            len(r.Nets),
		RemovedSegments: r.RemovedSegments,
		LiveSegments:    r.NL.LiveSegments(),
	}
}
