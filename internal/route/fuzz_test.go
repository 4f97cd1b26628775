package route

import (
	"slices"
	"testing"
)

// frontierSteps are the f and g increments an A* script draws from: the
// router's step costs (1 plus 1.5 per unit of history, 1024 more on a
// shove step), the half steps they sum to, and 0 for ties.
var frontierSteps = [...]float64{0, 0.5, 1, 1.5, 2, 2.5, 1024, 1025.5}

// FuzzFrontierOrder decodes its input into an A*-shaped script of
// frontier operations and checks every pop and peek against a plain
// itemLess sort of the entries queued. The script pushes entries never
// below the one pop or peek last returned (the frontier's contract),
// single or in runs of equal f with rising g that can fill several
// storage blocks, with f and g steps of the router's costs or fractional
// ones, keys above 2^22 as the sparse search
// mode makes, and stale re-pushes of an earlier key at another g; it
// peeks between pushes, as the bidirectional kernel does, and may reset
// the frontier while entries are still queued. The seed corpus under
// testdata/fuzz is replayed by `make fuzz-seeds`.
func FuzzFrontierOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 5, 0, 4, 9, 1, 6, 2, 2, 8, 5, 0, 0, 5, 6})
	f.Add([]byte{2, 5, 3, 1, 4, 2, 1, 0, 9, 4, 5, 2, 7, 1, 2, 6, 5, 5, 5})
	f.Add([]byte{0, 6, 3, 7, 200, 65, 0, 0, 1, 99, 250, 64, 3, 5, 1, 5, 4, 6})
	f.Add([]byte{0, 2, 1, 3, 4, 0, 1, 9, 2, 7, 4, 7, 0, 3, 3, 5, 6, 4, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		var (
			q      frontier
			queued []pqItem // the reference: every entry pushed and not yet popped
			floor  pqItem   // the entry pop or peek last returned
			keys   []int64  // keys pushed since the last reset
		)
		pos := 0
		next := func() byte {
			if pos >= len(script) {
				return 0
			}
			pos++
			return script[pos-1]
		}
		// step draws an f or g increment: one of frontierSteps, or with the
		// top bit set a fraction, as non-integral history charges make.
		step := func() float64 {
			b := next()
			if b&0x80 != 0 {
				return float64(b&0x7f) / 7
			}
			return frontierSteps[int(b)%len(frontierSteps)]
		}
		key := func() int64 {
			lo, hi := next(), next()
			k := int64(lo) | int64(hi&0x3f)<<8
			if hi&0x40 != 0 {
				k += 1 << 22
			}
			if hi&0x80 != 0 {
				k += 1 << 40
			}
			return k
		}
		push := func(it pqItem) {
			if itemLess(it, floor) {
				it.f = floor.f + 0.5 // lift it above the floor
			}
			q.push(it)
			queued = append(queued, it)
			keys = append(keys, it.key)
		}
		// lowest is the reference minimum: the head of a plain sort.
		lowest := func() pqItem {
			slices.SortFunc(queued, func(a, b pqItem) int {
				switch {
				case itemLess(a, b):
					return -1
				case itemLess(b, a):
					return 1
				}
				return 0
			})
			return queued[0]
		}
		pop := func(op string) {
			want := lowest()
			queued = queued[1:]
			got := q.pop()
			if got != want {
				t.Fatalf("%s at byte %d: pop %+v, want %+v", op, pos, got, want)
			}
			floor = got
		}
		for pos < len(script) {
			switch next() % 8 {
			case 0, 1: // one entry: f from the floor, g below f by a heuristic
				fv := floor.f + step()
				g := max(0, fv-float64(next()%32)/2)
				push(pqItem{f: fv, g: g, key: key()})
			case 2: // a run of equal f with rising g, long enough to fill blocks
				fv := floor.f + step()
				g := floor.g
				for n := 2 + int(next()); n > 0; n-- {
					g += step()
					push(pqItem{f: fv, g: g, key: key()})
				}
			case 3: // a stale re-push of an earlier key at a higher g
				if len(keys) == 0 {
					continue
				}
				k := keys[int(next())%len(keys)]
				push(pqItem{f: floor.f + step(), g: floor.g + 0.5 + step(), key: k})
			case 4: // a peek, as the bidirectional kernel makes between pushes
				if len(queued) == 0 {
					continue
				}
				want := lowest()
				if got := q.peek(); got != want {
					t.Fatalf("peek at byte %d: %+v, want %+v", pos, got, want)
				}
				floor = want
			case 5, 6:
				if len(queued) > 0 {
					pop("pop")
				}
			case 7: // a reset, possibly with entries still queued
				q.reset()
				queued, keys, floor = queued[:0], keys[:0], pqItem{}
			}
			if q.n != len(queued) {
				t.Fatalf("after byte %d: frontier holds %d entries, want %d", pos, q.n, len(queued))
			}
		}
		for len(queued) > 0 {
			pop("drain")
		}
	})
}
