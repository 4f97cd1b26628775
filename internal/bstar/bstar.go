// Package bstar implements the B*-tree floorplan representation (Chang et
// al.) used by the paper's 2.5D placement: each tier of the 2.5D
// architecture is packed by one B*-tree, and the placer perturbs the forest
// with intra-/inter-tree node moves and swaps (Section III-C2).
//
// A B*-tree node's left child abuts its parent on the +x side; a right
// child sits at the parent's x. The y coordinate is resolved with a
// contour (horizon) structure, yielding an admissible compacted packing in
// amortized linear time per pack.
package bstar

import (
	"fmt"
	"math/rand"
)

// Block is one rectangle to be packed. W and H are its extents along the
// tier plane's two axes; X and Y are set by Pack.
type Block struct {
	W, H int
	X, Y int
}

type node struct {
	parent, left, right int // node indices, -1 for none
	block               int // index into the shared block slice
}

// Tree packs a subset of blocks on one tier.
type Tree struct {
	blocks []*Block // shared storage, indexed by node.block
	nodes  []node
	root   int
	// free recycles node slots after removal.
	free []int
	// lastInsert remembers the node allocated by the latest Insert.
	lastInsert int
	// horizon is Pack's contour scratch, kept so repacking allocates
	// nothing once it has grown to the tree's widest packing.
	horizon []int
}

// NewTree builds a tree over the given blocks (by index into blocks),
// arranged as a complete binary tree, which spreads the initial packing.
func NewTree(blocks []*Block, members []int) *Tree {
	t := &Tree{blocks: blocks, root: -1}
	for i, b := range members {
		n := node{parent: -1, left: -1, right: -1, block: b}
		if i > 0 {
			n.parent = (i - 1) / 2
		}
		t.nodes = append(t.nodes, n)
	}
	for i := range t.nodes {
		if i == 0 {
			t.root = 0
			continue
		}
		p := (i - 1) / 2
		if i == 2*p+1 {
			t.nodes[p].left = i
		} else {
			t.nodes[p].right = i
		}
	}
	if len(t.nodes) == 0 {
		t.root = -1
	}
	return t
}

// Len returns the number of packed blocks.
func (t *Tree) Len() int { return len(t.nodes) - len(t.free) }

// Blocks returns the block indices currently in the tree, in pre-order.
func (t *Tree) Blocks() []int {
	var out []int
	for n := t.root; n >= 0; n = t.next(n) {
		out = append(out, t.nodes[n].block)
	}
	return out
}

// next returns the pre-order (node, left subtree, right subtree)
// successor of live node n, or -1 after the last node.
func (t *Tree) next(n int) int {
	if l := t.nodes[n].left; l >= 0 {
		return l
	}
	if r := t.nodes[n].right; r >= 0 {
		return r
	}
	for p := t.nodes[n].parent; p >= 0; n, p = p, t.nodes[p].parent {
		if t.nodes[p].left == n && t.nodes[p].right >= 0 {
			return t.nodes[p].right
		}
	}
	return -1
}

// Pack computes X/Y for every block in the tree and returns the bounding
// extents (W along x, H along y). An empty tree packs to (0, 0). Blocks
// are placed in pre-order, so a parent is placed before its children: a
// left child starts at its parent's right edge, a right child at its
// parent's x, and each sits on the horizon over its x span.
func (t *Tree) Pack() (w, h int) {
	horizon := t.horizon[:0]
	for n := t.root; n >= 0; n = t.next(n) {
		x := 0
		if p := t.nodes[n].parent; p >= 0 {
			pb := t.blocks[t.nodes[p].block]
			x = pb.X
			if t.nodes[p].left == n {
				x += pb.W
			}
		}
		b := t.blocks[t.nodes[n].block]
		x1 := x + b.W
		y := 0
		for i := x; i < x1 && i < len(horizon); i++ {
			y = max(y, horizon[i])
		}
		for len(horizon) < x1 {
			horizon = append(horizon, 0)
		}
		for i := x; i < x1; i++ {
			horizon[i] = y + b.H
		}
		b.X, b.Y = x, y
		w, h = max(w, x1), max(h, y+b.H)
	}
	t.horizon = horizon
	return w, h
}

// RandomNode returns a uniformly random live node index, or -1 if empty:
// it draws k = rng.Intn(Len()) and returns the k-th node in pre-order.
func (t *Tree) RandomNode(rng *rand.Rand) int {
	if t.Len() == 0 {
		return -1
	}
	n := t.root
	for k := rng.Intn(t.Len()); k > 0; k-- {
		n = t.next(n)
	}
	return n
}

// BlockAt returns the block index stored at node n.
func (t *Tree) BlockAt(n int) int { return t.nodes[n].block }

// SwapBlocks exchanges the blocks stored at two nodes (intra-tree swap).
func (t *Tree) SwapBlocks(a, b int) {
	t.nodes[a].block, t.nodes[b].block = t.nodes[b].block, t.nodes[a].block
}

// SwapBlocksAcross exchanges blocks between a node of t and a node of o
// (inter-tree swap).
func SwapBlocksAcross(t *Tree, a int, o *Tree, b int) {
	t.nodes[a].block, o.nodes[b].block = o.nodes[b].block, t.nodes[a].block
}

// Remove detaches node n and returns its block index. Interior nodes are
// first swapped down to a leaf (the standard B*-tree deletion used in SA
// floorplanning, which perturbs the packing but keeps the tree valid).
func (t *Tree) Remove(n int) int {
	// Bubble n down to a leaf by swapping block payloads.
	for t.nodes[n].left >= 0 || t.nodes[n].right >= 0 {
		c := t.nodes[n].left
		if c < 0 {
			c = t.nodes[n].right
		}
		t.SwapBlocks(n, c)
		n = c
	}
	b := t.nodes[n].block
	p := t.nodes[n].parent
	if p >= 0 {
		if t.nodes[p].left == n {
			t.nodes[p].left = -1
		} else {
			t.nodes[p].right = -1
		}
	} else {
		t.root = -1
	}
	t.nodes[n] = node{parent: -1, left: -1, right: -1, block: -1}
	t.free = append(t.free, n)
	return b
}

// Insert adds block b as the left (asLeft) or right child of node p; the
// displaced child, if any, is pushed down as the same-side child of the new
// node. With p < 0 the block becomes the root (only valid when empty).
func (t *Tree) Insert(b, p int, asLeft bool) error {
	n := t.alloc(b)
	if p < 0 {
		if t.root >= 0 {
			return fmt.Errorf("bstar: inserting second root")
		}
		t.root = n
		return nil
	}
	if p >= len(t.nodes) || t.nodes[p].block < 0 {
		return fmt.Errorf("bstar: parent %d not live", p)
	}
	t.nodes[n].parent = p
	if asLeft {
		old := t.nodes[p].left
		t.nodes[p].left = n
		t.nodes[n].left = old
		if old >= 0 {
			t.nodes[old].parent = n
		}
	} else {
		old := t.nodes[p].right
		t.nodes[p].right = n
		t.nodes[n].right = old
		if old >= 0 {
			t.nodes[old].parent = n
		}
	}
	return nil
}

func (t *Tree) alloc(b int) int {
	if len(t.free) > 0 {
		n := t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.nodes[n] = node{parent: -1, left: -1, right: -1, block: b}
		t.lastInsert = n
		return n
	}
	t.nodes = append(t.nodes, node{parent: -1, left: -1, right: -1, block: b})
	t.lastInsert = len(t.nodes) - 1
	return t.lastInsert
}

// NodeOfLastInsert returns the node index allocated by the most recent
// Insert call.
func (t *Tree) NodeOfLastInsert() int { return t.lastInsert }

// CloneInto returns a deep copy of the tree's topology sharing the given
// block storage (block coordinates are recomputed on every Pack, so only
// structure needs copying).
func (t *Tree) CloneInto(blocks []*Block) *Tree {
	return &Tree{
		blocks: blocks,
		nodes:  append([]node(nil), t.nodes...),
		root:   t.root,
		free:   append([]int(nil), t.free...),
	}
}

// CopyFrom overwrites t's topology with o's, keeping t's block storage
// and reusing t's node and free-list capacity: a caller that saves a tree
// before every perturbation allocates nothing once the copy has grown to
// the largest tree it holds.
func (t *Tree) CopyFrom(o *Tree) {
	t.nodes = append(t.nodes[:0], o.nodes...)
	t.root = o.root
	t.free = append(t.free[:0], o.free...)
}

// Validate checks tree structure invariants (parent/child symmetry, single
// root, no cycles, block indices live).
func (t *Tree) Validate() error {
	seen := map[int]bool{}
	count := 0
	var walk func(n, parent int) error
	walk = func(n, parent int) error {
		if n < 0 {
			return nil
		}
		if seen[n] {
			return fmt.Errorf("bstar: node %d visited twice (cycle)", n)
		}
		seen[n] = true
		count++
		if t.nodes[n].parent != parent {
			return fmt.Errorf("bstar: node %d parent %d want %d", n, t.nodes[n].parent, parent)
		}
		if t.nodes[n].block < 0 {
			return fmt.Errorf("bstar: node %d has no block", n)
		}
		if err := walk(t.nodes[n].left, n); err != nil {
			return err
		}
		return walk(t.nodes[n].right, n)
	}
	if err := walk(t.root, -1); err != nil {
		return err
	}
	if count != t.Len() {
		return fmt.Errorf("bstar: %d reachable nodes, %d live", count, t.Len())
	}
	return nil
}
