package route

// search.go holds the A* search kernels: a radix-heap frontier over the
// kernels' total entry order, a pooled generation-stamped search state
// shared by the dense (flat-array) and sparse (hash-map) cell-indexing
// modes, the unidirectional multi-source/multi-target kernel, and the
// bidirectional meet-in-the-middle kernel used for single-start/
// single-target nets.

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/bridge"
	"repro/internal/geom"
)

// pqItem is an A* frontier entry. f is the priority (g + heuristic, kept
// monotone by pathmax), g the cost from the seed set, and key the settled
// cell's cellLess rank within the search region (see searchState.key).
// The rank is invertible, so the cell itself is not stored, and (f, g)
// ties — the overwhelmingly common case while no congestion history has
// accrued and every cost is a small integer — are broken by one integer
// compare instead of a three-way coordinate compare.
type pqItem struct {
	f, g float64
	key  int64
}

// itemLess is the frontier order: by f, then g, then the region-local
// cellLess rank — a total order over all live and stale entries (two
// entries for the same cell always differ in g, distinct cells differ in
// key), so the pop sequence is independent of the frontier's layout and
// identical across runs, storage modes and schedulers. f and g are never
// negative, so the order is also the lexicographic order of the words
// (Float64bits(f), Float64bits(g), key) the frontier files entries by.
func itemLess(a, b pqItem) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.g != b.g {
		return a.g < b.g
	}
	return a.key < b.key
}

// frontierBuckets is the radix heap's bucket count: bucket 0 holds entries
// equal to the last one returned, and bucket 1+i those whose highest bit
// differing from it is bit i of the 192-bit word (f, g, key), counted
// from key's lowest bit.
const frontierBuckets = 1 + 3*64

// frontierBlock is the entry count of one block of bucket storage.
const frontierBlock = 256

// frontierBlk is one block of a bucket's entries: a stack of n of them,
// and next, the block after it in its bucket's chain or in the free list.
// next comes first, so the collector scans one word of a block rather
// than all of it.
type frontierBlk struct {
	next  *frontierBlk
	n     int
	items [frontierBlock]pqItem
}

// frontier is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990)
// of pqItems in itemLess order. It is a monotone priority queue: every
// pushed entry must be no less than the entry pop or peek last returned,
// which both kernels guarantee because their heuristic is consistent and
// they push f as max(parent f, g + h). Each entry is filed by the highest
// bit in which its (f, g, key) word differs from that last entry, so a
// push is one append, and a pop takes the itemLess minimum of the lowest
// non-empty bucket and refiles that bucket's other entries into strictly
// lower buckets; an entry moves at most 192 times between its push and
// its pop. The pop sequence is the itemLess order, the same as any heap
// over that order would give. A bucket is a chain of blocks taken from
// one free list, and a settled bucket's blocks go back to it as they are
// read, so the frontier holds about as many blocks as its entries fill
// rather than the sum of every bucket's peak. The searchState pool
// recycles the blocks across searches.
type frontier struct {
	last pqItem
	n    int
	mask [(frontierBuckets + 63) / 64]uint64 // bit b set: bucket b non-empty
	head [frontierBuckets]*frontierBlk       // each bucket's chain, nil when empty
	free *frontierBlk                        // blocks in no chain
}

// bucketOf returns the bucket of it relative to the last returned entry.
func (q *frontier) bucketOf(it pqItem) int {
	if d := math.Float64bits(it.f) ^ math.Float64bits(q.last.f); d != 0 {
		return 2*64 + bits.Len64(d)
	}
	if d := math.Float64bits(it.g) ^ math.Float64bits(q.last.g); d != 0 {
		return 64 + bits.Len64(d)
	}
	return bits.Len64(uint64(it.key ^ q.last.key))
}

// file adds it to bucket b, opening a block when the head block is full.
func (q *frontier) file(b int, it pqItem) {
	blk := q.head[b]
	if blk == nil || blk.n == frontierBlock {
		nb := q.free
		if nb != nil {
			q.free = nb.next
		} else {
			nb = new(frontierBlk)
		}
		nb.n, nb.next = 0, blk
		q.head[b], blk = nb, nb
		q.mask[b>>6] |= 1 << (b & 63)
	}
	blk.items[blk.n] = it
	blk.n++
}

// release returns blk to the free list.
func (q *frontier) release(blk *frontierBlk) {
	blk.next, q.free = q.free, blk
}

// push adds an entry, which must not be less than the last returned one.
func (q *frontier) push(it pqItem) {
	q.file(q.bucketOf(it), it)
	q.n++
}

// settle makes the minimum entry the last returned one and leaves it in
// bucket 0. The frontier must be non-empty.
func (q *frontier) settle() {
	if q.head[0] != nil {
		return
	}
	b := 0
	for w, m := range q.mask {
		if m != 0 {
			b = w<<6 + bits.TrailingZeros64(m)
			break
		}
	}
	chain := q.head[b]
	q.head[b] = nil
	q.mask[b>>6] &^= 1 << (b & 63)
	m := chain.items[0]
	for blk := chain; blk != nil; blk = blk.next {
		for _, it := range blk.items[:blk.n] {
			if itemLess(it, m) {
				m = it
			}
		}
	}
	q.last = m
	// Every entry of bucket b agrees with m above bit b-1 and at it, so
	// each refiles into a lower bucket; a block is free once read.
	for blk := chain; blk != nil; {
		for _, it := range blk.items[:blk.n] {
			q.file(q.bucketOf(it), it)
		}
		next := blk.next
		q.release(blk)
		blk = next
	}
}

// peek returns the minimum entry without removing it. The frontier must
// be non-empty.
func (q *frontier) peek() pqItem {
	q.settle()
	return q.last
}

// pop removes and returns the minimum entry. The frontier must be
// non-empty.
func (q *frontier) pop() pqItem {
	q.settle()
	blk := q.head[0]
	blk.n--
	if blk.n == 0 {
		q.head[0] = blk.next
		q.release(blk)
		if q.head[0] == nil {
			q.mask[0] &^= 1
		}
	}
	q.n--
	return q.last
}

// reset empties the frontier, keeping its blocks.
func (q *frontier) reset() {
	for w, m := range q.mask {
		for ; m != 0; m &= m - 1 {
			b := w<<6 + bits.TrailingZeros64(m)
			for blk := q.head[b]; blk != nil; {
				next := blk.next
				q.release(blk)
				blk = next
			}
			q.head[b] = nil
		}
	}
	q.mask = [len(q.mask)]uint64{}
	q.n = 0
	q.last = pqItem{}
}

// cellLess orders cells by (Z, Y, X); the router's deterministic
// tie-breaker wherever an arbitrary-but-reproducible cell choice is
// needed.
func cellLess(a, b geom.Point) bool {
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// boxDistance returns the Manhattan distance from c to box b — the A*
// heuristic for a multi-target search (admissible: every target lies in
// the targets' bounding box).
func boxDistance(c geom.Point, b geom.Box) float64 {
	d := 0
	if c.X < b.Min.X {
		d += b.Min.X - c.X
	} else if c.X >= b.Max.X {
		d += c.X - (b.Max.X - 1)
	}
	if c.Y < b.Min.Y {
		d += b.Min.Y - c.Y
	} else if c.Y >= b.Max.Y {
		d += c.Y - (b.Max.Y - 1)
	}
	if c.Z < b.Min.Z {
		d += b.Min.Z - c.Z
	} else if c.Z >= b.Max.Z {
		d += c.Z - (b.Max.Z - 1)
	}
	return float64(d)
}

// searchState is the pooled per-search A* state: g-scores, parent links, a
// visited stamp and a target-membership stamp per cell slot, plus the
// open frontier. Slots are region-local: in dense mode (region volume
// within denseSearchLimit) the slot of a cell is its key, so the arrays
// cover the whole region in cellLess order; in sparse mode slots are
// handed out in discovery order through a hash map and the arrays grow on
// demand. Generation stamping makes reuse O(1): a search bumps cur
// instead of clearing the arrays, and entries stamped by earlier
// generations read as unseen. Both modes run the same kernel code, which
// is what guarantees the dense and sparse searches expand identical node
// sequences.
type searchState struct {
	dense bool
	slotM map[geom.Point]int32 // sparse: cell -> slot
	cells []geom.Point         // sparse: slot -> cell

	// key() linearizes region cells in cellLess (Z, Y, X) order:
	// key(c) = (c.Z-kmin.Z)·kzMul + (c.Y-kmin.Y)·kyMul + (c.X-kmin.X).
	// Identical order to cellLess for every cell of the region, so pqItem
	// tie-breaking by key is exactly tie-breaking by cellLess.
	kmin         geom.Point
	kzMul, kyMul int64

	g      []float64
	parent []int32
	gen    []uint32 // visited stamp: gen[i] == cur means slot i has a g-score
	tgen   []uint32 // target stamp: tgen[i] == cur means slot i is a target
	cur    uint32
	open   frontier
}

// searchPool recycles searchState buffers; one state is checked out per
// in-flight frontier (bidirectional searches take two).
var searchPool = sync.Pool{New: func() any { return &searchState{} }}

// reset prepares the state for one search over region. In dense mode the
// arrays are sized to the region volume up front; in sparse mode the slot
// map is cleared and slots are allocated as cells are first touched.
func (s *searchState) reset(region geom.Box, dense bool) {
	s.dense = dense
	s.open.reset()
	s.kmin = region.Min
	s.kyMul = int64(region.Dx())
	s.kzMul = int64(region.Dy()) * s.kyMul
	if dense {
		if v := region.Volume(); v > len(s.g) {
			s.g = make([]float64, v)
			s.parent = make([]int32, v)
			s.gen = make([]uint32, v)
			s.tgen = make([]uint32, v)
			s.cur = 0
		}
	} else {
		if s.slotM == nil {
			s.slotM = map[geom.Point]int32{}
		} else {
			clear(s.slotM)
		}
		s.cells = s.cells[:0]
	}
	s.cur++
	if s.cur == 0 { // generation counter wrapped: invalidate everything
		for i := range s.gen {
			s.gen[i] = 0
			s.tgen[i] = 0
		}
		s.cur = 1
	}
}

// key returns c's cellLess rank within the search region: the integer
// tie-breaker carried by pqItems, and in dense mode the cell's slot.
func (s *searchState) key(c geom.Point) int64 {
	return int64(c.Z-s.kmin.Z)*s.kzMul + int64(c.Y-s.kmin.Y)*s.kyMul + int64(c.X-s.kmin.X)
}

// cellOf inverts key. The region is never empty while a search is live
// (it contains the start cell), so both multipliers are positive.
func (s *searchState) cellOf(key int64) geom.Point {
	z := key / s.kzMul
	rem := key % s.kzMul
	return geom.Pt(s.kmin.X+int(rem%s.kyMul), s.kmin.Y+int(rem/s.kyMul), s.kmin.Z+int(z))
}

// slot returns the state slot for cell c, allocating one in sparse mode.
// c must lie inside the search region.
func (s *searchState) slot(c geom.Point) int32 {
	if s.dense {
		return int32(s.key(c))
	}
	if i, ok := s.slotM[c]; ok {
		return i
	}
	i := int32(len(s.cells))
	s.slotM[c] = i
	s.cells = append(s.cells, c)
	if int(i) >= len(s.g) {
		s.g = append(s.g, 0)
		s.parent = append(s.parent, 0)
		s.gen = append(s.gen, 0)
		s.tgen = append(s.tgen, 0)
	}
	return i
}

// find returns the slot for cell c without allocating one; ok is false in
// sparse mode when c was never touched. The bidirectional kernel uses it
// to probe the opposite frontier.
func (s *searchState) find(c geom.Point) (int32, bool) {
	if s.dense {
		return int32(s.key(c)), true
	}
	i, ok := s.slotM[c]
	return i, ok
}

// cellAt is the inverse of slot.
func (s *searchState) cellAt(i int32) geom.Point {
	if s.dense {
		return s.cellOf(int64(i))
	}
	return s.cells[i]
}

// seen reports whether slot i has a g-score in this generation.
func (s *searchState) seen(i int32) bool { return s.gen[i] == s.cur }

// setG records g-score v and parent slot p (-1 marks a seed) for slot i in
// this generation.
func (s *searchState) setG(i int32, v float64, p int32) {
	s.gen[i] = s.cur
	s.g[i] = v
	s.parent[i] = p
}

// markTarget stamps slot i as a target cell for this generation.
func (s *searchState) markTarget(i int32) { s.tgen[i] = s.cur }

// isTarget reports whether slot i is a target cell in this generation.
func (s *searchState) isTarget(i int32) bool { return s.tgen[i] == s.cur }

// walk reconstructs the tree path from slot i back to its seed (parent -1)
// and appends the cells to dst in walk order (i first).
func (s *searchState) walk(i int32, dst geom.Path) geom.Path {
	for ; i >= 0; i = s.parent[i] {
		dst = append(dst, s.cellAt(i))
	}
	return dst
}

// passable reports whether net n may occupy the already-fetched cell state
// (net owner, pin owner, static flag as returned by grid.cellState).
func passable(n bridge.Net, net, pin int32, static bool) bool {
	if static {
		return false
	}
	if net >= 0 && int(net) != n.ID {
		return false // another net's committed cell
	}
	if pin >= 0 && int(pin) != n.PinA && int(pin) != n.PinB {
		return false // foreign pin access cell
	}
	return true
}

// shovable reports whether a cell that failed passable may still be
// crossed by a shove-rescue search: the only violation must be another
// net's committed cell. Statics and foreign pin cells stay impassable,
// so a failed shove search proves the net is enclosed by immovable
// geometry.
func shovable(n bridge.Net, net, pin int32, static bool) bool {
	return !static &&
		(pin < 0 || int(pin) == n.PinA || int(pin) == n.PinB) &&
		net >= 0 && int(net) != n.ID
}

// astar searches a cheapest path from any start to any target within the
// region, dispatching to the bidirectional kernel for the
// single-start/single-target case and the unidirectional kernel
// otherwise. A region that leaves the grid box — only degrade's
// whole-world fallback and shove searches ask for one — first grows the
// grid to the world, once. Regions up to denseSearchLimit cells (all but
// degenerate whole-world rescues) index search state with flat arrays;
// larger ones fall back to a hash-map slot index. Both storage modes run
// the same kernel code and return identical paths.
func (r *router) astar(n bridge.Net, ep *netEndpoints, region geom.Box) geom.Path {
	if !r.grid.box.ContainsBox(region) {
		r.growGrid()
	}
	// A region can never yield more useful expansions than it has cells.
	maxExp := maxExpansions
	if r.inFallback {
		// The rescue pass searches the whole world; give it more room
		// (still bounded so enclosed pins cannot wedge the router).
		maxExp *= 8
	}
	if v := region.Volume(); v < maxExp {
		maxExp = v
	}
	if r.shove {
		// Crossing penalties create cost plateaus that relax cells several
		// times each, so a volume-clamped budget is too tight for the
		// rescue search.
		maxExp *= 4
	}
	dense := region.Volume() <= denseSearchLimit
	starts := filterRegion(ep.starts, region)
	targets := filterRegion(ep.targets, region)
	if len(starts) == 0 || len(targets) == 0 {
		return nil
	}
	// Shove searches always run unidirectionally: the bidirectional cost
	// model has no notion of the crossing penalty.
	if !r.shove && len(starts) == 1 && len(targets) == 1 {
		return r.astarBidi(n, starts[0], targets[0], region, dense, maxExp)
	}
	// Anchor the heuristic on the in-region targets only: out-of-region
	// friend cells are unreachable this attempt, and a larger anchor box
	// is nearer to every cell, which only weakens the bound. The filtered
	// bounding box is tighter yet still admissible.
	return r.astarUni(n, starts, targets, cellsBounds(targets), region, dense, maxExp)
}

// filterRegion returns the cells contained in region, preserving order.
// The endpoint cache keeps cells cellLess-sorted, so the filtered slice is
// too; out-of-region friend cells are simply unusable this attempt.
func filterRegion(cells []geom.Point, region geom.Box) []geom.Point {
	out := make([]geom.Point, 0, len(cells))
	for _, c := range cells {
		if region.Contains(c) {
			out = append(out, c)
		}
	}
	return out
}

// astarUni is the unidirectional multi-source/multi-target kernel: seed
// every start at g=0, pop frontier entries in itemLess order, and stop at
// the first settled target. The heuristic is the Manhattan distance to
// tbox, the bounding box of the in-region target cells (admissible:
// every reachable target lies inside it; the caller keeps it tight by
// excluding out-of-region friend cells). Targets are enterable even when
// occupied (terminating on a friend path is the Fig. 19 deformation);
// every other cell must pass the occupancy/pin/static checks — unless a
// shove rescue is underway, in which case a foreign committed cell may
// be crossed at shovePenalty. Determinism: seeds are cellLess-sorted,
// the frontier order is total, and all tie-breaks are coordinate-based.
func (r *router) astarUni(n bridge.Net, starts, targets []geom.Point, tbox geom.Box, region geom.Box, dense bool, maxExp int) geom.Path {
	s := searchPool.Get().(*searchState)
	defer searchPool.Put(s)
	s.reset(region, dense)
	for _, c := range targets {
		s.markTarget(s.slot(c))
	}
	for _, c := range starts {
		s.setG(s.slot(c), 0, -1)
		s.open.push(pqItem{g: 0, f: boxDistance(c, tbox), key: s.key(c)})
	}
	// Fast-path toggles, constant for the whole search: a dense world grid
	// answers "is this cell free for everyone?" with one byte, and until
	// the first rip-up charges history every step costs exactly 1. A shove
	// rescue (r.shove) may cross other nets' cells at shovePenalty each.
	gr := r.grid
	fastGrid := gr.dense
	noHist := !gr.hasHist()
	shove := r.shove
	expansions := 0
	for s.open.n > 0 {
		cur := s.open.pop()
		cell := s.cellOf(cur.key)
		ci := s.slot(cell)
		if cur.g > s.g[ci] {
			continue // stale entry
		}
		if s.isTarget(ci) {
			return s.walk(ci, nil).Reverse()
		}
		expansions++
		if expansions > maxExp {
			return nil
		}
		if expansions%cancelCheckExpansions == 0 && r.checkCtx() {
			return nil
		}
		for _, d := range geom.Dirs6 {
			next := cell.Step(d)
			if !region.Contains(next) {
				continue
			}
			ni := s.slot(next)
			var hist, pen float64
			if fastGrid {
				gi := gr.idx.index(next)
				// Targets are enterable even when occupied by a friend
				// path; blocked cells may still belong to this net, and
				// a static cell is neither passable nor shovable.
				if b := gr.blocked[gi]; b != 0 && !s.isTarget(ni) {
					if b&blockedStatic != 0 {
						continue
					}
					c := &gr.cells[gi]
					if !passable(n, c.net, c.pin, false) {
						if !shove || !shovable(n, c.net, c.pin, false) {
							continue
						}
						pen = shovePenalty
					}
				}
				if !noHist {
					hist = gr.cells[gi].hist
				}
			} else {
				net, pin, static, h := gr.cellState(next)
				// Targets are enterable even when occupied by a friend path.
				if !s.isTarget(ni) && !passable(n, net, pin, static) {
					if !shove || !shovable(n, net, pin, static) {
						continue
					}
					pen = shovePenalty
				}
				hist = h
			}
			ng := cur.g + 1 + historyWeight*hist + pen
			if s.seen(ni) && ng >= s.g[ni] {
				continue
			}
			s.setG(ni, ng, ci)
			s.open.push(pqItem{g: ng, f: max(cur.f, ng+boxDistance(next, tbox)), key: s.key(next)})
		}
	}
	return nil
}

// astarBidi is the bidirectional kernel for single-start/single-target
// nets: one frontier grows from the start with the forward cost model
// (entering a cell costs 1 + historyWeight·hist(cell)), one from the
// target with the mirrored model (leaving toward the target charges the
// cell being left), so for any cell m the sum gf(m)+gb(m) is exactly the
// cost of the concatenated start→m→target path. Whenever either side
// relaxes a cell the other side has seen, the sum becomes a meeting
// candidate; the best candidate μ (ties broken by cellLess on the meeting
// cell) is returned once μ ≤ max(min f of either frontier), the point at
// which no better meeting can exist (both heuristics are consistent).
// Which frontier expands next is itself chosen by itemLess on the two
// frontiers' minima (forward wins ties), so the whole search is
// deterministic. The reconstructed path is simple: a shared non-meeting
// cell would produce a strictly cheaper candidate, contradicting μ's
// minimality.
func (r *router) astarBidi(n bridge.Net, start, target geom.Point, region geom.Box, dense bool, maxExp int) geom.Path {
	sf := searchPool.Get().(*searchState)
	sb := searchPool.Get().(*searchState)
	defer searchPool.Put(sf)
	defer searchPool.Put(sb)
	sf.reset(region, dense)
	sb.reset(region, dense)
	sbox := geom.CellBox(start)
	tbox := geom.CellBox(target)
	sf.setG(sf.slot(start), 0, -1)
	sf.open.push(pqItem{g: 0, f: boxDistance(start, tbox), key: sf.key(start)})
	sb.setG(sb.slot(target), 0, -1)
	sb.open.push(pqItem{g: 0, f: boxDistance(target, sbox), key: sb.key(target)})

	mu := math.Inf(1)
	var meet geom.Point
	// consider records a meeting candidate at cell c with path cost g.
	consider := func(c geom.Point, g float64) {
		if g < mu || (g == mu && cellLess(c, meet)) {
			mu, meet = g, c
		}
	}
	// Same fast-path toggles as the unidirectional kernel.
	gr := r.grid
	fastGrid := gr.dense
	noHist := !gr.hasHist()
	expansions := 0
	for {
		fTop, bTop := pqItem{f: math.Inf(1)}, pqItem{f: math.Inf(1)}
		if sf.open.n > 0 {
			fTop = sf.open.peek()
		}
		if sb.open.n > 0 {
			bTop = sb.open.peek()
		}
		if mu <= max(fTop.f, bTop.f) { // includes both-frontiers-empty with mu still infinite
			break
		}
		// Expand the side whose top entry is smaller; forward on ties.
		forward := sb.open.n == 0 || (sf.open.n > 0 && !itemLess(bTop, fTop))
		s, o := sf, sb
		goal := target
		if !forward {
			s, o = sb, sf
			goal = start
		}
		cur := s.open.pop()
		cell := s.cellOf(cur.key)
		ci := s.slot(cell)
		if cur.g > s.g[ci] {
			continue // stale entry
		}
		expansions++
		if expansions > maxExp {
			return nil
		}
		if expansions%cancelCheckExpansions == 0 && r.checkCtx() {
			return nil
		}
		// The backward cost model charges the cell being left (it is the
		// cell "entered" when the path is read start→target).
		var leaveCost float64
		if !forward && !noHist {
			var hist float64
			if fastGrid {
				hist = gr.cells[gr.idx.index(cell)].hist
			} else {
				_, _, _, hist = gr.cellState(cell)
			}
			leaveCost = historyWeight * hist
		}
		hbox := tbox
		if !forward {
			hbox = sbox
		}
		for _, d := range geom.Dirs6 {
			next := cell.Step(d)
			if !region.Contains(next) {
				continue
			}
			var hist float64
			if fastGrid {
				gi := gr.idx.index(next)
				// Each frontier may enter its own goal cell
				// unconditionally, mirroring the unidirectional kernel's
				// seeded starts and enterable targets; other blocked
				// cells may still belong to this net unless static.
				if b := gr.blocked[gi]; b != 0 && next != goal {
					if b&blockedStatic != 0 {
						continue
					}
					c := &gr.cells[gi]
					if !passable(n, c.net, c.pin, false) {
						continue
					}
				}
				if forward && !noHist {
					hist = gr.cells[gi].hist
				}
			} else {
				net, pin, static, h := gr.cellState(next)
				// Each frontier may enter its own goal cell unconditionally.
				if next != goal && !passable(n, net, pin, static) {
					continue
				}
				hist = h
			}
			var ng float64
			if forward {
				ng = cur.g + 1 + historyWeight*hist
			} else {
				ng = cur.g + 1 + leaveCost
			}
			ni := s.slot(next)
			if s.seen(ni) && ng >= s.g[ni] {
				continue
			}
			s.setG(ni, ng, ci)
			s.open.push(pqItem{g: ng, f: max(cur.f, ng+boxDistance(next, hbox)), key: s.key(next)})
			if oi, ok := o.find(next); ok && o.seen(oi) {
				consider(next, ng+o.g[oi])
			}
		}
	}
	if math.IsInf(mu, 1) {
		return nil
	}
	// Forward half start→meet, then the backward tree's meet→target tail.
	mf, _ := sf.find(meet)
	path := sf.walk(mf, nil).Reverse()
	mb, _ := sb.find(meet)
	return sb.walk(sb.parent[mb], path)
}
