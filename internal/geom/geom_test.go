package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dist(q); !almostEq(got, math.Hypot(2, 3), 1e-12) {
		t.Errorf("Dist = %v", got)
	}
	if got := p.Dist2(q); !almostEq(got, 13, 1e-12) {
		t.Errorf("Dist2 = %v", got)
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(3, 4, 1, 2)
	if r.Lo != (Point{1, 2}) || r.Hi != (Point{3, 4}) {
		t.Fatalf("NewRect did not normalize: %v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	if r.W() != 4 || r.H() != 2 {
		t.Fatalf("W/H = %v/%v", r.W(), r.H())
	}
	if r.Area() != 8 {
		t.Fatalf("Area = %v", r.Area())
	}
	if r.Center() != (Point{2, 1}) {
		t.Fatalf("Center = %v", r.Center())
	}
	moved := r.MoveCenter(Point{10, 10})
	if moved.Center() != (Point{10, 10}) || moved.W() != 4 || moved.H() != 2 {
		t.Fatalf("MoveCenter = %v", moved)
	}
}

func TestRectAt(t *testing.T) {
	r := RectAt(Point{1, 1}, 2, 4)
	if r.Lo != (Point{0, -1}) || r.Hi != (Point{2, 3}) {
		t.Fatalf("RectAt = %v", r)
	}
}

func TestInflate(t *testing.T) {
	r := NewRect(0, 0, 2, 2).Inflate(0.5)
	if r.Lo != (Point{-0.5, -0.5}) || r.Hi != (Point{2.5, 2.5}) {
		t.Fatalf("Inflate = %v", r)
	}
	s := r.Inflate(-0.5)
	if s != NewRect(0, 0, 2, 2) {
		t.Fatalf("deflate = %v", s)
	}
}

func TestOverlapsAndIntersect(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(1, 1, 3, 3)
	c := NewRect(2, 2, 4, 4) // touches a at a corner only
	d := NewRect(5, 5, 6, 6)

	if !a.Overlaps(b) {
		t.Error("a should overlap b")
	}
	if a.Overlaps(c) {
		t.Error("corner touch must not count as overlap")
	}
	if a.Overlaps(d) {
		t.Error("disjoint rects must not overlap")
	}
	ov, ok := a.Intersect(b)
	if !ok || ov != NewRect(1, 1, 2, 2) {
		t.Errorf("Intersect = %v, %v", ov, ok)
	}
	if got := a.OverlapArea(b); !almostEq(got, 1, 1e-12) {
		t.Errorf("OverlapArea = %v", got)
	}
	if got := a.OverlapArea(d); got != 0 {
		t.Errorf("disjoint OverlapArea = %v", got)
	}
}

func TestIntersectionLength(t *testing.T) {
	a := NewRect(0, 0, 4, 1)
	b := NewRect(2, 0.5, 6, 3)
	// Overlap is [2,4]x[0.5,1] → w=2, h=0.5 → length = 2.
	if got := a.IntersectionLength(b); !almostEq(got, 2, 1e-12) {
		t.Errorf("IntersectionLength = %v", got)
	}
	if got := a.IntersectionLength(NewRect(10, 10, 11, 11)); got != 0 {
		t.Errorf("disjoint IntersectionLength = %v", got)
	}
}

func TestGap(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	// Pure horizontal separation.
	if g := a.Gap(NewRect(3, 0, 4, 1)); !almostEq(g, 2, 1e-12) {
		t.Errorf("horizontal gap = %v", g)
	}
	// Pure vertical separation.
	if g := a.Gap(NewRect(0, 2.5, 1, 3)); !almostEq(g, 1.5, 1e-12) {
		t.Errorf("vertical gap = %v", g)
	}
	// Diagonal separation: dx=1, dy=1 → hypot.
	if g := a.Gap(NewRect(2, 2, 3, 3)); !almostEq(g, math.Sqrt2, 1e-12) {
		t.Errorf("diagonal gap = %v", g)
	}
	// Overlap → negative.
	if g := a.Gap(NewRect(0.5, 0.5, 1.5, 1.5)); g >= 0 {
		t.Errorf("overlap gap should be negative, got %v", g)
	}
}

func TestEnclosingRect(t *testing.T) {
	if _, ok := EnclosingRect(nil); ok {
		t.Fatal("empty input should return ok=false")
	}
	rects := []Rect{
		NewRect(0, 0, 1, 1),
		NewRect(-2, 3, -1, 4),
		NewRect(5, -1, 6, 0),
	}
	enc, ok := EnclosingRect(rects)
	if !ok || enc != NewRect(-2, -1, 6, 4) {
		t.Fatalf("EnclosingRect = %v, %v", enc, ok)
	}
	if got := TotalArea(rects); !almostEq(got, 3, 1e-12) {
		t.Fatalf("TotalArea = %v", got)
	}
}

func TestClamp(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if got := r.Clamp(Point{-5, 20}); got != (Point{0, 10}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Point{5, 5}); got != (Point{5, 5}) {
		t.Errorf("Clamp inside = %v", got)
	}
}

func TestContains(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{2, 2}) || !r.Contains(Point{1, 1}) {
		t.Error("boundary and interior points must be contained")
	}
	if r.Contains(Point{2.01, 1}) {
		t.Error("outside point must not be contained")
	}
	if !r.ContainsRect(NewRect(0.5, 0.5, 1.5, 1.5)) {
		t.Error("inner rect must be contained")
	}
	if r.ContainsRect(NewRect(1, 1, 3, 3)) {
		t.Error("overhanging rect must not be contained")
	}
}

// Property: Union always contains both inputs; Intersect (when ok) is
// contained in both inputs.
func TestQuickUnionIntersectProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 100) }
		a := NewRect(norm(ax), norm(ay), norm(ax)+norm(aw)+0.1, norm(ay)+norm(ah)+0.1)
		b := NewRect(norm(bx), norm(by), norm(bx)+norm(bw)+0.1, norm(by)+norm(bh)+0.1)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		if ov, ok := a.Intersect(b); ok {
			if !a.ContainsRect(ov) || !b.ContainsRect(ov) {
				return false
			}
			if ov.Area() > math.Min(a.Area(), b.Area())+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: overlap area is symmetric and bounded by each rect's area.
func TestQuickOverlapAreaSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 10) }
		a := RectAt(Point{norm(ax), norm(ay)}, 2, 3)
		b := RectAt(Point{norm(bx), norm(by)}, 4, 1)
		oa, ob := a.OverlapArea(b), b.OverlapArea(a)
		if math.Abs(oa-ob) > 1e-12 {
			return false
		}
		return oa <= math.Min(a.Area(), b.Area())+1e-12 && oa >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Gap is symmetric, and negative iff rectangles overlap.
func TestQuickGapOverlapConsistency(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 8) }
		a := RectAt(Point{norm(ax), norm(ay)}, 2, 2)
		b := RectAt(Point{norm(bx), norm(by)}, 3, 1)
		g1, g2 := a.Gap(b), b.Gap(a)
		if math.Abs(g1-g2) > 1e-12 {
			return false
		}
		return (g1 < 0) == a.Overlaps(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
