package bstar

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mkBlocks(dims ...[2]int) []*Block {
	out := make([]*Block, len(dims))
	for i, d := range dims {
		out[i] = &Block{W: d[0], H: d[1]}
	}
	return out
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func overlaps(a, b *Block) bool {
	return a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H
}

func checkNoOverlap(t *testing.T, blocks []*Block, members []int) {
	t.Helper()
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			a, b := blocks[members[i]], blocks[members[j]]
			if overlaps(a, b) {
				t.Fatalf("blocks %d and %d overlap: %+v %+v", members[i], members[j], a, b)
			}
		}
	}
}

func TestPackSingle(t *testing.T) {
	blocks := mkBlocks([2]int{3, 4})
	tr := NewTree(blocks, allIdx(1))
	w, h := tr.Pack()
	if w != 3 || h != 4 {
		t.Fatalf("pack: %d×%d", w, h)
	}
	if blocks[0].X != 0 || blocks[0].Y != 0 {
		t.Fatalf("position: %+v", blocks[0])
	}
}

func TestPackEmpty(t *testing.T) {
	tr := NewTree(nil, nil)
	if w, h := tr.Pack(); w != 0 || h != 0 {
		t.Fatalf("empty pack: %d×%d", w, h)
	}
	if tr.Len() != 0 {
		t.Fatalf("len: %d", tr.Len())
	}
}

func TestPackRow(t *testing.T) {
	// A left-child chain packs as a row.
	blocks := mkBlocks([2]int{2, 2}, [2]int{3, 2}, [2]int{1, 2})
	tr := NewTree(blocks, nil)
	// Build the chain manually: 0 root, 1 left of 0, 2 left of 1.
	tr = &Tree{blocks: blocks, root: -1}
	if err := tr.Insert(0, -1, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(2, 1, true); err != nil {
		t.Fatal(err)
	}
	w, h := tr.Pack()
	if w != 6 || h != 2 {
		t.Fatalf("row pack: %d×%d want 6×2", w, h)
	}
	if blocks[1].X != 2 || blocks[2].X != 5 {
		t.Fatalf("row xs: %d %d", blocks[1].X, blocks[2].X)
	}
	checkNoOverlap(t, blocks, allIdx(3))
}

func TestPackRightChildStacks(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{2, 3})
	tr := &Tree{blocks: blocks, root: -1}
	if err := tr.Insert(0, -1, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 0, false); err != nil {
		t.Fatal(err)
	}
	w, h := tr.Pack()
	if w != 2 || h != 5 {
		t.Fatalf("stack pack: %d×%d want 2×5", w, h)
	}
	if blocks[1].X != 0 || blocks[1].Y != 2 {
		t.Fatalf("stacked block: %+v", blocks[1])
	}
}

func TestNewTreeCompleteShape(t *testing.T) {
	blocks := mkBlocks([2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1})
	tr := NewTree(blocks, allIdx(5))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("len: %d", tr.Len())
	}
	tr.Pack()
	checkNoOverlap(t, blocks, allIdx(5))
}

func TestRemoveInsert(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{3, 3}, [2]int{1, 1}, [2]int{2, 1})
	tr := NewTree(blocks, allIdx(4))
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 200; step++ {
		n := tr.RandomNode(rng)
		b := tr.Remove(n)
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d after remove: %v", step, err)
		}
		if tr.Len() == 0 {
			if err := tr.Insert(b, -1, true); err != nil {
				t.Fatal(err)
			}
		} else {
			p := tr.RandomNode(rng)
			if err := tr.Insert(b, p, rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d after insert: %v", step, err)
		}
		if tr.Len() != 4 {
			t.Fatalf("step %d: len %d", step, tr.Len())
		}
		tr.Pack()
		checkNoOverlap(t, blocks, allIdx(4))
	}
}

func TestSwapBlocks(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{4, 4})
	tr := NewTree(blocks, allIdx(2))
	n0, n1 := 0, 1
	b0, b1 := tr.BlockAt(n0), tr.BlockAt(n1)
	tr.SwapBlocks(n0, n1)
	if tr.BlockAt(n0) != b1 || tr.BlockAt(n1) != b0 {
		t.Fatal("swap did not exchange blocks")
	}
	tr.Pack()
	checkNoOverlap(t, blocks, allIdx(2))
}

func TestSwapAcrossTrees(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{3, 3})
	t1 := NewTree(blocks, []int{0})
	t2 := NewTree(blocks, []int{1})
	SwapBlocksAcross(t1, 0, t2, 0)
	if t1.BlockAt(0) != 1 || t2.BlockAt(0) != 0 {
		t.Fatal("cross swap failed")
	}
	if err := t1.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSecondRootFails(t *testing.T) {
	blocks := mkBlocks([2]int{1, 1}, [2]int{1, 1})
	tr := NewTree(blocks, []int{0})
	if err := tr.Insert(1, -1, true); err == nil {
		t.Fatal("second root accepted")
	}
}

func TestBlocksListsMembers(t *testing.T) {
	blocks := mkBlocks([2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1})
	tr := NewTree(blocks, []int{2, 0, 1})
	got := map[int]bool{}
	for _, b := range tr.Blocks() {
		got[b] = true
	}
	if !got[0] || !got[1] || !got[2] {
		t.Fatalf("blocks: %v", tr.Blocks())
	}
}

// preorder lists t's live nodes by recursive pre-order (node, left
// subtree, right subtree): the reference the parent-link walk must match.
func preorder(t *Tree, n int, out []int) []int {
	if n < 0 {
		return out
	}
	out = append(out, n)
	out = preorder(t, t.nodes[n].left, out)
	return preorder(t, t.nodes[n].right, out)
}

// TestRandomNodeIsKthPreorder pins RandomNode's draw: on trees reshaped by
// random moves it returns the k-th node of the recursive pre-order for
// k = rng.Intn(Len()), so the same seed picks the same node as indexing a
// materialized pre-order list would.
func TestRandomNodeIsKthPreorder(t *testing.T) {
	var blocks []*Block
	for i := 0; i < 17; i++ {
		blocks = append(blocks, &Block{W: 1 + i%5, H: 1 + i%3})
	}
	tr := NewTree(blocks, allIdx(len(blocks)))
	shape := rand.New(rand.NewSource(11))
	for step := 0; step < 300; step++ {
		b := tr.Remove(tr.RandomNode(shape))
		if err := tr.Insert(b, tr.RandomNode(shape), shape.Intn(2) == 0); err != nil {
			t.Fatal(err)
		}
		order := preorder(tr, tr.root, nil)
		if len(order) != tr.Len() {
			t.Fatalf("step %d: pre-order has %d nodes, Len %d", step, len(order), tr.Len())
		}
		seed := int64(step)
		got := tr.RandomNode(rand.New(rand.NewSource(seed)))
		if want := order[rand.New(rand.NewSource(seed)).Intn(len(order))]; got != want {
			t.Fatalf("step %d: RandomNode = %d, want pre-order pick %d", step, got, want)
		}
		var want []int
		for _, n := range order {
			want = append(want, tr.nodes[n].block)
		}
		if got := tr.Blocks(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Blocks = %v, want pre-order %v", step, got, want)
		}
	}
}

// TestCopyFromRestoresTopology pins the undo contract CopyFrom serves: a
// copy taken before a move packs exactly like the tree did before it,
// stays independent of the source, and keeps its own block binding.
func TestCopyFromRestoresTopology(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{3, 1}, [2]int{1, 4}, [2]int{2, 3}, [2]int{4, 1})
	tr := NewTree(blocks, allIdx(len(blocks)))
	w0, h0 := tr.Pack()
	spare := NewTree(blocks, nil)
	spare.CopyFrom(tr)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		b := tr.Remove(tr.RandomNode(rng))
		if err := tr.Insert(b, tr.RandomNode(rng), rng.Intn(2) == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := spare.Validate(); err != nil {
		t.Fatal(err)
	}
	if w, h := spare.Pack(); w != w0 || h != h0 {
		t.Fatalf("copy packs %d×%d, the tree packed %d×%d before the moves", w, h, w0, h0)
	}
	other := mkBlocks([2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1})
	rebound := NewTree(other, nil)
	rebound.CopyFrom(tr)
	if w, h := rebound.Pack(); w > len(other) || h > len(other) {
		t.Fatalf("copy packed the source's blocks (%d×%d), not its own unit blocks", w, h)
	}
}

// Property: any random perturbation sequence keeps the packing overlap-free
// and the tree valid, and packing area ≥ total block area.
func TestQuickPerturbationsSafe(t *testing.T) {
	f := func(sizes []uint8, seed int64) bool {
		if len(sizes) < 4 {
			return true
		}
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		var blocks []*Block
		area := 0
		for i := 0; i+1 < len(sizes); i += 2 {
			w, h := 1+int(sizes[i]%6), 1+int(sizes[i+1]%6)
			blocks = append(blocks, &Block{W: w, H: h})
			area += w * h
		}
		tr := NewTree(blocks, allIdx(len(blocks)))
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 40; step++ {
			switch rng.Intn(2) {
			case 0:
				n := tr.RandomNode(rng)
				b := tr.Remove(n)
				if tr.Len() == 0 {
					_ = tr.Insert(b, -1, true)
				} else {
					_ = tr.Insert(b, tr.RandomNode(rng), rng.Intn(2) == 0)
				}
			case 1:
				a, b := tr.RandomNode(rng), tr.RandomNode(rng)
				tr.SwapBlocks(a, b)
			}
			if tr.Validate() != nil {
				return false
			}
		}
		w, h := tr.Pack()
		if w*h < area {
			return false
		}
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				if overlaps(blocks[i], blocks[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var blocks []*Block
	for i := 0; i < 500; i++ {
		blocks = append(blocks, &Block{W: 2 + rng.Intn(20), H: 2 + rng.Intn(8)})
	}
	tr := NewTree(blocks, allIdx(len(blocks)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Pack()
	}
}

func BenchmarkPerturbPack(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var blocks []*Block
	for i := 0; i < 200; i++ {
		blocks = append(blocks, &Block{W: 2 + rng.Intn(20), H: 2 + rng.Intn(8)})
	}
	tr := NewTree(blocks, allIdx(len(blocks)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := tr.RandomNode(rng)
		blk := tr.Remove(n)
		if tr.Len() == 0 {
			_ = tr.Insert(blk, -1, true)
		} else {
			_ = tr.Insert(blk, tr.RandomNode(rng), rng.Intn(2) == 0)
		}
		tr.Pack()
	}
}
