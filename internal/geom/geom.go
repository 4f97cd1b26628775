// Package geom provides the integer 3D geometry primitives used throughout
// the TQEC compression flow: lattice points, axis-aligned boxes, axis
// directions, rectilinear segments and paths.
//
// The coordinate convention follows the paper: the x axis is the time axis
// (time flows toward +x), y is the width axis, and z is the height axis.
// A TQEC geometric description occupies a finite box of unit cells; two
// disjoint defect structures must be separated by at least one unit, which
// is modelled by treating occupied cells as blocking and requiring paths to
// use distinct cells.
package geom

import "fmt"

// Axis identifies one of the three lattice axes.
type Axis int

// The three lattice axes. X is the time axis in the paper's convention.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

// String returns "x", "y" or "z".
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Point is a point on the integer lattice.
type Point struct {
	X, Y, Z int
}

// Pt is shorthand for Point{x, y, z}.
func Pt(x, y, z int) Point { return Point{x, y, z} }

// Add returns p+q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p−q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns p scaled by k.
func (p Point) Scale(k int) Point { return Point{p.X * k, p.Y * k, p.Z * k} }

// Axis returns the coordinate of p along axis a.
func (p Point) Axis(a Axis) int {
	switch a {
	case AxisX:
		return p.X
	case AxisY:
		return p.Y
	default:
		return p.Z
	}
}

// WithAxis returns a copy of p with the coordinate along a replaced by v.
func (p Point) WithAxis(a Axis, v int) Point {
	switch a {
	case AxisX:
		p.X = v
	case AxisY:
		p.Y = v
	default:
		p.Z = v
	}
	return p
}

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y) + abs(p.Z-q.Z)
}

// MaxPoint returns the componentwise maximum of p and q.
func MaxPoint(p, q Point) Point {
	return Point{max(p.X, q.X), max(p.Y, q.Y), max(p.Z, q.Z)}
}

// MinPoint returns the componentwise minimum of p and q.
func MinPoint(p, q Point) Point {
	return Point{min(p.X, q.X), min(p.Y, q.Y), min(p.Z, q.Z)}
}

// String formats the point as "(x,y,z)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d,%d)", p.X, p.Y, p.Z) }

// Dir is one of the six axis-aligned unit steps (or the zero step).
type Dir struct {
	DX, DY, DZ int
}

// The six axis-aligned unit directions.
var (
	DirPosX = Dir{1, 0, 0}
	DirNegX = Dir{-1, 0, 0}
	DirPosY = Dir{0, 1, 0}
	DirNegY = Dir{0, -1, 0}
	DirPosZ = Dir{0, 0, 1}
	DirNegZ = Dir{0, 0, -1}
)

// Dirs6 lists the six axis-aligned unit directions in a fixed order.
var Dirs6 = []Dir{DirPosX, DirNegX, DirPosY, DirNegY, DirPosZ, DirNegZ}

// Step returns p moved one unit along d.
func (p Point) Step(d Dir) Point { return Point{p.X + d.DX, p.Y + d.DY, p.Z + d.DZ} }

// Reverse returns the opposite direction.
func (d Dir) Reverse() Dir { return Dir{-d.DX, -d.DY, -d.DZ} }

// Box is an axis-aligned box of lattice cells. Min is inclusive and Max is
// exclusive, so the box spans cells with Min.X ≤ x < Max.X and likewise for
// y and z. The zero Box is empty.
type Box struct {
	Min, Max Point
}

// NewBox returns the box spanning [x0,x1)×[y0,y1)×[z0,z1). It normalizes
// the corners so Min ≤ Max on every axis.
func NewBox(x0, y0, z0, x1, y1, z1 int) Box {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	if z0 > z1 {
		z0, z1 = z1, z0
	}
	return Box{Point{x0, y0, z0}, Point{x1, y1, z1}}
}

// BoxAt returns a box with minimum corner at p and the given sizes.
func BoxAt(p Point, sx, sy, sz int) Box {
	return Box{p, Point{p.X + sx, p.Y + sy, p.Z + sz}}
}

// CellBox returns the 1×1×1 box holding the single cell p.
func CellBox(p Point) Box { return BoxAt(p, 1, 1, 1) }

// Dx returns the box extent along x.
func (b Box) Dx() int { return b.Max.X - b.Min.X }

// Dy returns the box extent along y.
func (b Box) Dy() int { return b.Max.Y - b.Min.Y }

// Dz returns the box extent along z.
func (b Box) Dz() int { return b.Max.Z - b.Min.Z }

// Size returns the extents of b along all three axes.
func (b Box) Size() Point { return b.Max.Sub(b.Min) }

// Volume returns the number of cells in b (#x × #y × #z in the paper's
// volume convention).
func (b Box) Volume() int {
	if b.Empty() {
		return 0
	}
	return b.Dx() * b.Dy() * b.Dz()
}

// Empty reports whether b contains no cells.
func (b Box) Empty() bool {
	return b.Max.X <= b.Min.X || b.Max.Y <= b.Min.Y || b.Max.Z <= b.Min.Z
}

// Contains reports whether cell p lies inside b.
func (b Box) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X < b.Max.X &&
		p.Y >= b.Min.Y && p.Y < b.Max.Y &&
		p.Z >= b.Min.Z && p.Z < b.Max.Z
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	return o.Min.X >= b.Min.X && o.Max.X <= b.Max.X &&
		o.Min.Y >= b.Min.Y && o.Max.Y <= b.Max.Y &&
		o.Min.Z >= b.Min.Z && o.Max.Z <= b.Max.Z
}

// Intersects reports whether b and o share at least one cell.
func (b Box) Intersects(o Box) bool {
	if b.Empty() || o.Empty() {
		return false
	}
	return b.Min.X < o.Max.X && o.Min.X < b.Max.X &&
		b.Min.Y < o.Max.Y && o.Min.Y < b.Max.Y &&
		b.Min.Z < o.Max.Z && o.Min.Z < b.Max.Z
}

// Intersect returns the overlap of b and o (possibly empty).
func (b Box) Intersect(o Box) Box {
	r := Box{
		Point{max(b.Min.X, o.Min.X), max(b.Min.Y, o.Min.Y), max(b.Min.Z, o.Min.Z)},
		Point{min(b.Max.X, o.Max.X), min(b.Max.Y, o.Max.Y), min(b.Max.Z, o.Max.Z)},
	}
	if r.Empty() {
		return Box{}
	}
	return r
}

// Union returns the smallest box containing both b and o. An empty
// operand contributes nothing, and two empty operands give the canonical
// empty box Box{}, so the union never depends on operand order.
func (b Box) Union(o Box) Box {
	switch {
	case b.Empty() && o.Empty():
		return Box{}
	case b.Empty():
		return o
	case o.Empty():
		return b
	}
	return Box{
		Point{min(b.Min.X, o.Min.X), min(b.Min.Y, o.Min.Y), min(b.Min.Z, o.Min.Z)},
		Point{max(b.Max.X, o.Max.X), max(b.Max.Y, o.Max.Y), max(b.Max.Z, o.Max.Z)},
	}
}

// UnionPoint returns the smallest box containing b and cell p.
func (b Box) UnionPoint(p Point) Box { return b.Union(CellBox(p)) }

// Expand grows b by k cells on every face (shrinks for negative k); the
// result is normalized to the empty box if it collapses.
func (b Box) Expand(k int) Box {
	if b.Empty() {
		return b
	}
	r := Box{
		Point{b.Min.X - k, b.Min.Y - k, b.Min.Z - k},
		Point{b.Max.X + k, b.Max.Y + k, b.Max.Z + k},
	}
	if r.Empty() {
		return Box{}
	}
	return r
}

// Translate returns b shifted by d.
func (b Box) Translate(d Point) Box {
	if b.Empty() {
		return b
	}
	return Box{b.Min.Add(d), b.Max.Add(d)}
}

// Center returns the (floored) center cell of b.
func (b Box) Center() Point {
	return Point{
		(b.Min.X + b.Max.X - 1) / 2,
		(b.Min.Y + b.Max.Y - 1) / 2,
		(b.Min.Z + b.Max.Z - 1) / 2,
	}
}

// String formats the box as "[min..max)".
func (b Box) String() string { return fmt.Sprintf("[%v..%v)", b.Min, b.Max) }

// BoundingBox returns the smallest box containing every given box.
func BoundingBox(boxes []Box) Box {
	var r Box
	for _, b := range boxes {
		r = r.Union(b)
	}
	return r
}

// Segment is an axis-aligned lattice segment from A to B inclusive.
// A and B must differ along at most one axis.
type Segment struct {
	A, B Point
}

// Valid reports whether the segment is axis-aligned.
func (s Segment) Valid() bool {
	n := 0
	if s.A.X != s.B.X {
		n++
	}
	if s.A.Y != s.B.Y {
		n++
	}
	if s.A.Z != s.B.Z {
		n++
	}
	return n <= 1
}

// Len returns the number of cells covered by the segment (≥1 when valid).
func (s Segment) Len() int { return s.A.Manhattan(s.B) + 1 }

// Cells returns every lattice cell covered by the segment, from A to B.
func (s Segment) Cells() []Point {
	n := s.Len()
	out := make([]Point, 0, n)
	d := Dir{sign(s.B.X - s.A.X), sign(s.B.Y - s.A.Y), sign(s.B.Z - s.A.Z)}
	p := s.A
	for {
		out = append(out, p)
		if p == s.B {
			break
		}
		p = p.Step(d)
	}
	return out
}

// Bounds returns the bounding box of the segment.
func (s Segment) Bounds() Box {
	return CellBox(s.A).UnionPoint(s.B)
}

// Path is a rectilinear lattice path: a sequence of adjacent cells.
type Path []Point

// Len returns the number of cells on the path.
func (p Path) Len() int { return len(p) }

// Valid reports whether consecutive cells are lattice neighbors.
func (p Path) Valid() bool {
	for i := 1; i < len(p); i++ {
		if p[i].Manhattan(p[i-1]) != 1 {
			return false
		}
	}
	return true
}

// Bounds returns the bounding box of the path.
func (p Path) Bounds() Box {
	var b Box
	for _, q := range p {
		b = b.UnionPoint(q)
	}
	return b
}

// Reverse reverses the path in place and returns it.
func (p Path) Reverse() Path {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Segments compresses the path into maximal axis-aligned segments.
func (p Path) Segments() []Segment {
	if len(p) == 0 {
		return nil
	}
	var segs []Segment
	start := p[0]
	var cur Dir
	have := false
	for i := 1; i < len(p); i++ {
		d := Dir{p[i].X - p[i-1].X, p[i].Y - p[i-1].Y, p[i].Z - p[i-1].Z}
		if have && d != cur {
			segs = append(segs, Segment{start, p[i-1]})
			start = p[i-1]
		}
		cur, have = d, true
	}
	segs = append(segs, Segment{start, p[len(p)-1]})
	return segs
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
