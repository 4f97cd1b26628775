// Package cluster builds super-modules from the modularized netlist
// (Section III-C1 of the paper): time-dependent super-modules for T-gate
// measurement blocks, distillation-injection super-modules binding |Y⟩/|A⟩
// boxes to their injection modules, and primal-group super-modules that
// merge dual-loop-connected primal modules to shrink the SA problem size
// (the journal version's improvement over the conference version [36]).
//
// The package also fixes the geometry conventions used downstream:
//
//   - A module with k live dual segments occupies (k+1) × 3 × 2 cells
//     (time × width × height): a primal ring three cells wide and two
//     tall, long enough to thread k dual segments.
//   - Segment i's pins sit one cell below and one cell above the module
//     body at x-offset i+1 — the points where the dual segment leaves the
//     enclosing primal loop.
//   - Distillation boxes take the optimized sizes of Fowler & Devitt
//     (|Y⟩ 3×3×2, |A⟩ 16×6×2) and sit to the left (earlier in time) of the
//     module their output state is injected into.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/distill"
	"repro/internal/geom"
	"repro/internal/modular"
)

// SuperKind classifies a super-module.
type SuperKind int

// Super-module kinds.
const (
	KindSingle      SuperKind = iota // an unclustered module
	KindTimeDep                      // T-gate measurement block (Fig. 17(a))
	KindDistillInj                   // box + injected module (Fig. 17(b,c))
	KindPrimalGroup                  // dual-loop-connected primal group
)

// String returns a short mnemonic.
func (k SuperKind) String() string {
	switch k {
	case KindSingle:
		return "single"
	case KindTimeDep:
		return "timedep"
	case KindDistillInj:
		return "distill"
	case KindPrimalGroup:
		return "group"
	}
	return fmt.Sprintf("SuperKind(%d)", int(k))
}

// BoxKind identifies a distillation box type.
type BoxKind int

// Distillation box types.
const (
	BoxY BoxKind = iota
	BoxA
)

// Size returns the box extents.
func (k BoxKind) Size() geom.Point {
	if k == BoxA {
		return distill.ABoxSize
	}
	return distill.YBoxSize
}

// BoxMember is a distillation box embedded in a super-module.
type BoxMember struct {
	Kind   BoxKind
	Offset geom.Point // origin within the super-module
}

// Super is one placeable super-module.
type Super struct {
	ID      int
	Kind    SuperKind
	Members []int        // module IDs
	Offsets []geom.Point // member origins within the super-module
	Boxes   []BoxMember
	Size    geom.Point // (time, width, height) extents
	// TGroup and Qubit identify the T block for time-dependent supers
	// (-1 otherwise); Seq is the block's program-order index per qubit.
	TGroup int
	Qubit  int
	Seq    int
}

// Clustering is the clustered netlist handed to the placer.
type Clustering struct {
	NL     *modular.Netlist
	Supers []Super
	// OfModule maps each module ID to its super-module ID.
	OfModule []int
	// TSLs maps each logical qubit to its time-dependent super-module IDs
	// in program order (Section III-C2's time-dependent super-module
	// lists).
	TSLs map[int][]int

	noBoxes bool
}

// maxGroupSize caps the number of modules per primal group (Section
// III-C1's "upper limit").
const maxGroupSize = 6

// Options configures clustering.
type Options struct {
	// PrimalGroups enables primal-group super-module formation (the
	// journal version; disable to reproduce the conference version [36]
	// for Table III).
	PrimalGroups bool
	// NoBoxes skips distillation-box attachment; injections are then
	// treated as raw (level-0) state injections, as inside a distillation
	// circuit itself.
	NoBoxes bool
}

// DefaultOptions returns the journal-version configuration.
func DefaultOptions() Options {
	return Options{PrimalGroups: true}
}

// ModuleSize returns the body extents of a module with its current live
// segment count.
func ModuleSize(nl *modular.Netlist, m int) geom.Point {
	k := len(nl.LiveSegmentsOf(m))
	if k < 1 {
		k = 1
	}
	return geom.Pt(k+1, 3, 2)
}

// Build clusters the netlist.
func Build(nl *modular.Netlist, opts Options) (*Clustering, error) {
	c := &Clustering{
		NL:       nl,
		OfModule: make([]int, len(nl.Modules)),
		TSLs:     map[int][]int{},
		noBoxes:  opts.NoBoxes,
	}
	for i := range c.OfModule {
		c.OfModule[i] = -1
	}

	// 1. Time-dependent super-modules, one per T group, in TSL order so
	// Seq is consistent.
	ic := nl.ICM
	for _, tg := range ic.TGroups {
		members := []int{nl.ZMeasModule[tg.ID]}
		members = append(members, nl.TeleportModules[tg.ID][:]...)
		if dup := firstClustered(c, members); dup >= 0 {
			// A module already claimed (e.g. shared z/teleport module in
			// a degenerate circuit): fall back to skipping this group's
			// clustering; its modules place individually.
			continue
		}
		s := c.layoutTimeDep(members)
		s.TGroup = tg.ID
		s.Qubit = tg.Qubit
		s.Seq = tg.Seq
		id := c.addSuper(s)
		c.TSLs[tg.Qubit] = append(c.TSLs[tg.Qubit], id)
	}

	// 2. Distillation-injection super-modules for injection modules not
	// already inside a time-dependent super (those got their boxes there).
	if !opts.NoBoxes {
		for _, m := range nl.Modules {
			if c.OfModule[m.ID] >= 0 {
				continue
			}
			switch m.Kind {
			case modular.KindInjectY:
				c.addSuper(c.layoutDistillInj(m.ID, BoxY))
			case modular.KindInjectA:
				c.addSuper(c.layoutDistillInj(m.ID, BoxA))
			}
		}
	}

	// 3. Primal-group super-modules over the remaining modules.
	if opts.PrimalGroups {
		for _, l := range nl.Loops {
			var group []int
			for _, m := range l.Modules {
				if c.OfModule[m] < 0 {
					group = append(group, m)
					if len(group) == maxGroupSize {
						break
					}
				}
			}
			if len(group) >= 2 {
				c.addSuper(c.layoutGroup(group))
			}
		}
	}

	// 4. Leftover singles.
	for _, m := range nl.Modules {
		if c.OfModule[m.ID] < 0 {
			c.addSuper(Super{
				Kind:    KindSingle,
				Members: []int{m.ID},
				Offsets: []geom.Point{geom.Pt(0, 0, 0)},
				Size:    ModuleSize(nl, m.ID),
				TGroup:  -1, Qubit: -1,
			})
		}
	}
	return c, c.Validate()
}

func firstClustered(c *Clustering, members []int) int {
	seen := map[int]bool{}
	for _, m := range members {
		if c.OfModule[m] >= 0 || seen[m] {
			return m
		}
		seen[m] = true
	}
	return -1
}

func (c *Clustering) addSuper(s Super) int {
	s.ID = len(c.Supers)
	c.Supers = append(c.Supers, s)
	for _, m := range s.Members {
		c.OfModule[m] = s.ID
	}
	return s.ID
}

// layoutTimeDep arranges a T block (Fig. 17(a)): wide (|A⟩) distillation
// boxes at the far left (the state must be ready before injection), then a
// column holding the Z-measurement module with any small (|Y⟩) boxes
// stacked beneath it, then the four selective-teleportation modules in a
// 2×2 grid whose columns start strictly right of the Z module — so the Z
// measurement precedes every selective teleportation measurement along the
// time axis.
func (c *Clustering) layoutTimeDep(members []int) Super {
	nl := c.NL
	z := members[0]
	teleports := members[1:]

	zSize := ModuleSize(nl, z)
	var smallBoxes, wideBoxes []BoxKind
	collect := func(m int) {
		switch nl.Modules[m].Kind {
		case modular.KindInjectY:
			smallBoxes = append(smallBoxes, BoxY)
		case modular.KindInjectA:
			wideBoxes = append(wideBoxes, BoxA)
		}
	}
	if !c.noBoxes {
		for _, m := range teleports {
			collect(m)
		}
		collect(z)
	}

	// Far-left column of wide boxes.
	wideW, wideH := 0, 0
	for _, b := range wideBoxes {
		sz := b.Size()
		if sz.X > wideW {
			wideW = sz.X
		}
		wideH += sz.Y + 1
	}
	// Z column: the Z module with small boxes stacked beneath.
	zColW, zColH := zSize.X, zSize.Y
	for _, b := range smallBoxes {
		sz := b.Size()
		if sz.X > zColW {
			zColW = sz.X
		}
		zColH += sz.Y + 1
	}
	// Teleport 2×2 grid: cell extents from the largest teleport module.
	cellW, cellH := 0, 0
	for _, m := range teleports {
		sz := ModuleSize(nl, m)
		if sz.X > cellW {
			cellW = sz.X
		}
		if sz.Y > cellH {
			cellH = sz.Y
		}
	}
	cols := (len(teleports) + 1) / 2
	rows := 2
	if len(teleports) < 2 {
		rows = len(teleports)
	}
	gridW := cols*(cellW+1) - 1
	gridH := rows*(cellH+1) - 1

	width := zColW + 1 + gridW
	if wideW > 0 {
		width += wideW + 1
	}
	height := max3(wideH, zColH, gridH)

	s := Super{Kind: KindTimeDep, Size: geom.Pt(width, height, 2), TGroup: -1, Qubit: -1}
	x := 0
	y := 0
	for _, b := range wideBoxes {
		sz := b.Size()
		s.Boxes = append(s.Boxes, BoxMember{Kind: b, Offset: geom.Pt(x, y, 0)})
		y += sz.Y + 1
	}
	if wideW > 0 {
		x += wideW + 1
	}
	// Z module plus small boxes beneath it.
	s.Members = append(s.Members, z)
	s.Offsets = append(s.Offsets, geom.Pt(x, 0, 0))
	y = zSize.Y + 1
	for _, b := range smallBoxes {
		s.Boxes = append(s.Boxes, BoxMember{Kind: b, Offset: geom.Pt(x, y, 0)})
		y += b.Size().Y + 1
	}
	// Teleport grid, columns right of the Z module's end.
	gx := x + zColW + 1
	for i, m := range teleports {
		col, row := i/2, i%2
		s.Members = append(s.Members, m)
		s.Offsets = append(s.Offsets, geom.Pt(gx+col*(cellW+1), row*(cellH+1), 0))
	}
	return s
}

// layoutDistillInj binds a distillation box directly to its injected
// module, box first in time (Fig. 17(b,c)).
func (c *Clustering) layoutDistillInj(m int, box BoxKind) Super {
	bs := box.Size()
	ms := ModuleSize(c.NL, m)
	return Super{
		Kind:    KindDistillInj,
		Members: []int{m},
		Offsets: []geom.Point{geom.Pt(bs.X+1, 0, 0)},
		Boxes:   []BoxMember{{Kind: box, Offset: geom.Pt(0, 0, 0)}},
		Size:    geom.Pt(bs.X+1+ms.X, maxInt(bs.Y, ms.Y), 2),
		TGroup:  -1, Qubit: -1,
	}
}

// layoutGroup shelf-packs a primal group into a near-square block.
func (c *Clustering) layoutGroup(group []int) Super {
	nl := c.NL
	// Sort by decreasing width for a tighter shelf packing; keep order
	// deterministic.
	sorted := append([]int(nil), group...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return ModuleSize(nl, sorted[i]).X > ModuleSize(nl, sorted[j]).X
	})
	area := 0
	for _, m := range sorted {
		sz := ModuleSize(nl, m)
		area += (sz.X + 1) * (sz.Y + 1)
	}
	targetW := isqrt(area) + 1

	s := Super{Kind: KindPrimalGroup, TGroup: -1, Qubit: -1}
	x, y, rowH, width := 0, 0, 0, 0
	for _, m := range sorted {
		sz := ModuleSize(nl, m)
		if x > 0 && x+sz.X > targetW {
			y += rowH + 1
			x, rowH = 0, 0
		}
		s.Members = append(s.Members, m)
		s.Offsets = append(s.Offsets, geom.Pt(x, y, 0))
		if x+sz.X > width {
			width = x + sz.X
		}
		if sz.Y > rowH {
			rowH = sz.Y
		}
		x += sz.X + 1
	}
	s.Size = geom.Pt(width, y+rowH, 2)
	return s
}

// Validate checks that every module belongs to exactly one super-module,
// offsets stay inside super bounds, and members do not overlap.
func (c *Clustering) Validate() error {
	for m, s := range c.OfModule {
		if s < 0 || s >= len(c.Supers) {
			return fmt.Errorf("cluster: module %d unassigned", m)
		}
	}
	for _, s := range c.Supers {
		if len(s.Members) != len(s.Offsets) {
			return fmt.Errorf("cluster: super %d members/offsets mismatch", s.ID)
		}
		var boxes []geom.Box
		for i, m := range s.Members {
			if c.OfModule[m] != s.ID {
				return fmt.Errorf("cluster: super %d member %d assigned elsewhere", s.ID, m)
			}
			sz := ModuleSize(c.NL, m)
			b := geom.BoxAt(s.Offsets[i], sz.X, sz.Y, sz.Z)
			if !geom.BoxAt(geom.Pt(0, 0, 0), s.Size.X, s.Size.Y, s.Size.Z).ContainsBox(b) {
				return fmt.Errorf("cluster: super %d member %d overflows: %v ⊄ %v", s.ID, m, b, s.Size)
			}
			boxes = append(boxes, b)
		}
		for _, bm := range s.Boxes {
			sz := bm.Kind.Size()
			b := geom.BoxAt(bm.Offset, sz.X, sz.Y, sz.Z)
			if !geom.BoxAt(geom.Pt(0, 0, 0), s.Size.X, s.Size.Y, s.Size.Z).ContainsBox(b) {
				return fmt.Errorf("cluster: super %d box overflows", s.ID)
			}
			boxes = append(boxes, b)
		}
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes); j++ {
				if boxes[i].Intersects(boxes[j]) {
					return fmt.Errorf("cluster: super %d internal overlap", s.ID)
				}
			}
		}
	}
	for q, tsl := range c.TSLs {
		for k, id := range tsl {
			s := c.Supers[id]
			if s.Kind != KindTimeDep || s.Qubit != q || s.Seq != k {
				return fmt.Errorf("cluster: TSL[%d][%d] inconsistent", q, k)
			}
		}
	}
	return nil
}

// PinOffset returns pin p's position relative to its module's origin: one
// cell below (end 0) or above (end 1) the body at the segment's x slot.
// Pins of removed segments have no geometric location and return an error.
func (c *Clustering) PinOffset(p int) (geom.Point, error) {
	nl := c.NL
	pin := nl.Pins[p]
	seg := nl.Segments[pin.Segment]
	if seg.Removed {
		return geom.Point{}, fmt.Errorf("cluster: pin %d belongs to removed segment %d", p, seg.ID)
	}
	idx := -1
	for i, sid := range nl.LiveSegmentsOf(seg.Module) {
		if sid == seg.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return geom.Point{}, fmt.Errorf("cluster: segment %d not live in module %d", seg.ID, seg.Module)
	}
	if pin.End == 0 {
		return geom.Pt(idx+1, 1, -1), nil
	}
	return geom.Pt(idx+1, 1, 2), nil
}

// Stats summarizes the clustering (the #Nodes column of Table I).
type Stats struct {
	Nodes        int // B*-tree nodes = number of super-modules
	TimeDep      int
	DistillInj   int
	PrimalGroups int
	Singles      int
}

// Stats tallies the clustering.
func (c *Clustering) Stats() Stats {
	s := Stats{Nodes: len(c.Supers)}
	for _, sp := range c.Supers {
		switch sp.Kind {
		case KindTimeDep:
			s.TimeDep++
		case KindDistillInj:
			s.DistillInj++
		case KindPrimalGroup:
			s.PrimalGroups++
		case KindSingle:
			s.Singles++
		}
	}
	return s
}

func max3(a, b, c int) int { return maxInt(a, maxInt(b, c)) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}
