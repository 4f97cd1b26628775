package geom

import (
	"testing"
	"testing/quick"
)

func TestAxisString(t *testing.T) {
	if AxisX.String() != "x" || AxisY.String() != "y" || AxisZ.String() != "z" {
		t.Fatalf("axis names: %v %v %v", AxisX, AxisY, AxisZ)
	}
	if Axis(9).String() != "Axis(9)" {
		t.Fatalf("unknown axis: %v", Axis(9))
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2, 3)
	q := Pt(4, -1, 2)
	if got := p.Add(q); got != Pt(5, 1, 5) {
		t.Errorf("Add: %v", got)
	}
	if got := p.Sub(q); got != Pt(-3, 3, 1) {
		t.Errorf("Sub: %v", got)
	}
	if got := p.Manhattan(q); got != 3+3+1 {
		t.Errorf("Manhattan: %d", got)
	}
	if p.String() != "(1,2,3)" {
		t.Errorf("String: %s", p.String())
	}
}

func TestPointAxisAccess(t *testing.T) {
	p := Pt(7, 8, 9)
	if p.Axis(AxisX) != 7 || p.Axis(AxisY) != 8 || p.Axis(AxisZ) != 9 {
		t.Fatalf("Axis access: %v", p)
	}
	if got := p.WithAxis(AxisY, 0); got != Pt(7, 0, 9) {
		t.Errorf("WithAxis y: %v", got)
	}
	if got := p.WithAxis(AxisX, -1); got != Pt(-1, 8, 9) {
		t.Errorf("WithAxis x: %v", got)
	}
	if got := p.WithAxis(AxisZ, 5); got != Pt(7, 8, 5) {
		t.Errorf("WithAxis z: %v", got)
	}
}

func TestDirStepReverse(t *testing.T) {
	p := Pt(0, 0, 0)
	for _, d := range Dirs6 {
		q := p.Step(d)
		if q.Manhattan(p) != 1 {
			t.Errorf("step %v not unit", d)
		}
		if q.Step(d.Reverse()) != p {
			t.Errorf("reverse of %v does not return", d)
		}
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(0, 0, 0, 3, 4, 5)
	if b.Volume() != 60 {
		t.Errorf("volume: %d", b.Volume())
	}
	if b.Dx() != 3 || b.Dy() != 4 || b.Dz() != 5 {
		t.Errorf("dims: %d %d %d", b.Dx(), b.Dy(), b.Dz())
	}
	if b.Size() != Pt(3, 4, 5) {
		t.Errorf("size: %v", b.Size())
	}
	if !b.Contains(Pt(2, 3, 4)) || b.Contains(Pt(3, 0, 0)) {
		t.Errorf("contains edge cases wrong")
	}
	if (Box{}).Volume() != 0 || !(Box{}).Empty() {
		t.Errorf("zero box should be empty")
	}
}

func TestNewBoxNormalizes(t *testing.T) {
	b := NewBox(3, 4, 5, 0, 0, 0)
	if b != NewBox(0, 0, 0, 3, 4, 5) {
		t.Fatalf("normalization failed: %v", b)
	}
}

func TestBoxIntersectUnion(t *testing.T) {
	a := NewBox(0, 0, 0, 4, 4, 4)
	b := NewBox(2, 2, 2, 6, 6, 6)
	if !a.Intersects(b) {
		t.Fatal("should intersect")
	}
	got := a.Intersect(b)
	if got != NewBox(2, 2, 2, 4, 4, 4) {
		t.Errorf("intersect: %v", got)
	}
	u := a.Union(b)
	if u != NewBox(0, 0, 0, 6, 6, 6) {
		t.Errorf("union: %v", u)
	}
	c := NewBox(10, 10, 10, 11, 11, 11)
	if a.Intersects(c) {
		t.Error("disjoint boxes reported intersecting")
	}
	if !a.Intersect(c).Empty() {
		t.Error("intersection of disjoint boxes not empty")
	}
}

func TestBoxTouchingDoNotIntersect(t *testing.T) {
	a := NewBox(0, 0, 0, 2, 2, 2)
	b := NewBox(2, 0, 0, 4, 2, 2) // face-adjacent
	if a.Intersects(b) {
		t.Fatal("face-adjacent boxes must not intersect (half-open)")
	}
}

func TestBoxUnionEmpty(t *testing.T) {
	a := NewBox(1, 1, 1, 2, 2, 2)
	if a.Union(Box{}) != a || (Box{}).Union(a) != a {
		t.Fatal("union with empty must be identity")
	}
}

func TestBoxContainsBox(t *testing.T) {
	a := NewBox(0, 0, 0, 5, 5, 5)
	if !a.ContainsBox(NewBox(1, 1, 1, 4, 4, 4)) {
		t.Error("inner box should be contained")
	}
	if a.ContainsBox(NewBox(1, 1, 1, 6, 4, 4)) {
		t.Error("overhanging box should not be contained")
	}
	if !a.ContainsBox(Box{}) {
		t.Error("empty box is contained in everything")
	}
}

func TestBoxExpand(t *testing.T) {
	a := NewBox(2, 2, 2, 4, 4, 4)
	if got := a.Expand(1); got != NewBox(1, 1, 1, 5, 5, 5) {
		t.Errorf("expand: %v", got)
	}
	if got := a.Expand(-1); !got.Empty() {
		t.Errorf("collapsed expand should be empty: %v", got)
	}
	if !(Box{}).Expand(3).Empty() {
		t.Error("expanding empty box must stay empty")
	}
}

func TestBoxTranslateCenter(t *testing.T) {
	a := NewBox(0, 0, 0, 3, 3, 3)
	if got := a.Translate(Pt(1, 2, 3)); got != NewBox(1, 2, 3, 4, 5, 6) {
		t.Errorf("translate: %v", got)
	}
}

func TestSegmentCells(t *testing.T) {
	s := Segment{Pt(0, 0, 0), Pt(0, 3, 0)}
	if !s.Valid() {
		t.Fatal("segment should be valid")
	}
	cells := s.Cells()
	if len(cells) != 4 || cells[0] != Pt(0, 0, 0) || cells[3] != Pt(0, 3, 0) {
		t.Fatalf("cells: %v", cells)
	}
	if s.Len() != 4 {
		t.Errorf("len: %d", s.Len())
	}
	if s.Bounds() != NewBox(0, 0, 0, 1, 4, 1) {
		t.Errorf("bounds: %v", s.Bounds())
	}
	diag := Segment{Pt(0, 0, 0), Pt(1, 1, 0)}
	if diag.Valid() {
		t.Error("diagonal segment reported valid")
	}
	pointSeg := Segment{Pt(2, 2, 2), Pt(2, 2, 2)}
	if pointSeg.Len() != 1 || len(pointSeg.Cells()) != 1 {
		t.Error("degenerate segment should be one cell")
	}
}

func TestPathValidSegments(t *testing.T) {
	p := Path{Pt(0, 0, 0), Pt(1, 0, 0), Pt(2, 0, 0), Pt(2, 1, 0), Pt(2, 2, 0)}
	if !p.Valid() {
		t.Fatal("path should be valid")
	}
	segs := p.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments: %v", segs)
	}
	if segs[0] != (Segment{Pt(0, 0, 0), Pt(2, 0, 0)}) {
		t.Errorf("seg0: %v", segs[0])
	}
	if segs[1] != (Segment{Pt(2, 0, 0), Pt(2, 2, 0)}) {
		t.Errorf("seg1: %v", segs[1])
	}
	bad := Path{Pt(0, 0, 0), Pt(2, 0, 0)}
	if bad.Valid() {
		t.Error("gapped path reported valid")
	}
	if Path(nil).Segments() != nil {
		t.Error("empty path should have nil segments")
	}
}

func TestPathReverseBounds(t *testing.T) {
	p := Path{Pt(0, 0, 0), Pt(0, 1, 0), Pt(0, 1, 1)}
	b := p.Bounds()
	if b != NewBox(0, 0, 0, 1, 2, 2) {
		t.Errorf("bounds: %v", b)
	}
	p.Reverse()
	if p[0] != Pt(0, 1, 1) || p[2] != Pt(0, 0, 0) {
		t.Errorf("reverse: %v", p)
	}
}

// Property: Union is commutative, associative-enough for bounding, and
// always contains both operands.
func TestQuickBoxUnionContains(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz, dx, dy, dz int8) bool {
		a := NewBox(int(ax), int(ay), int(az), int(bx), int(by), int(bz))
		b := NewBox(int(cx), int(cy), int(cz), int(dx), int(dy), int(dz))
		u := a.Union(b)
		return u == b.Union(a) && u.ContainsBox(a) && u.ContainsBox(b)
	}
	// Two different empty boxes quick.Check once drew: their union used to
	// be whichever operand came second.
	if !f(-36, 27, 110, -36, 121, -75, -36, 39, 108, -36, 95, 46) {
		t.Fatal("union of two empty boxes depends on operand order")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the intersection is contained in both operands and Intersects
// agrees with non-emptiness of Intersect.
func TestQuickBoxIntersect(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz, dx, dy, dz int8) bool {
		a := NewBox(int(ax), int(ay), int(az), int(bx), int(by), int(bz))
		b := NewBox(int(cx), int(cy), int(cz), int(dx), int(dy), int(dz))
		i := a.Intersect(b)
		if a.Intersects(b) != !i.Empty() {
			return false
		}
		return a.ContainsBox(i) && b.ContainsBox(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Manhattan distance is a metric (symmetry + triangle inequality).
func TestQuickManhattanMetric(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz int8) bool {
		a := Pt(int(ax), int(ay), int(az))
		b := Pt(int(bx), int(by), int(bz))
		c := Pt(int(cx), int(cy), int(cz))
		if a.Manhattan(b) != b.Manhattan(a) {
			return false
		}
		if a.Manhattan(a) != 0 {
			return false
		}
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a segment's cells form a valid path whose bounds equal the
// segment bounds.
func TestQuickSegmentCellsPath(t *testing.T) {
	f := func(x, y, z int8, axis uint8, length uint8) bool {
		a := Pt(int(x), int(y), int(z))
		b := a.WithAxis(Axis(axis%3), a.Axis(Axis(axis%3))+int(length%20))
		s := Segment{a, b}
		p := Path(s.Cells())
		return p.Valid() && p.Bounds() == s.Bounds() && p.Len() == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
