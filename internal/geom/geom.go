// Package geom provides the 2-D geometric primitives used throughout the
// placer: points, axis-aligned rectangles, overlap queries, and minimum
// enclosing rectangles.
//
// All coordinates are in millimetres unless stated otherwise.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D point.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle described by its lower-left and
// upper-right corners. A Rect with Lo == Hi is an empty (degenerate) box.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// RectAt returns a w×h rectangle centred at c.
func RectAt(c Point, w, h float64) Rect {
	return Rect{
		Lo: Point{c.X - w/2, c.Y - h/2},
		Hi: Point{c.X + w/2, c.Y + h/2},
	}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Hi.X - r.Lo.X }

// H returns the height of r.
func (r Rect) H() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the centroid of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Inflate returns r grown by m on every side (shrunk if m < 0).
func (r Rect) Inflate(m float64) Rect {
	return Rect{
		Lo: Point{r.Lo.X - m, r.Lo.Y - m},
		Hi: Point{r.Hi.X + m, r.Hi.Y + m},
	}
}

// Contains reports whether p lies inside r (inclusive of boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Lo) && r.Contains(s.Hi)
}

// Overlaps reports whether r and s overlap with positive area.
func (r Rect) Overlaps(s Rect) bool {
	return r.Lo.X < s.Hi.X && s.Lo.X < r.Hi.X &&
		r.Lo.Y < s.Hi.Y && s.Lo.Y < r.Hi.Y
}

// Intersect returns the overlap rectangle of r and s. If they do not
// overlap, the second return value is false and the rectangle is degenerate.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	lo := Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)}
	hi := Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)}
	if lo.X >= hi.X || lo.Y >= hi.Y {
		return Rect{}, false
	}
	return Rect{lo, hi}, true
}

// IntersectionLength returns the larger side of the overlap rectangle of r
// and s, the 1-D "intersection length" used by the frequency-hotspot metric
// (Eq. 18 of the paper). It is 0 when the rectangles do not overlap.
func (r Rect) IntersectionLength(s Rect) float64 {
	ov, ok := r.Intersect(s)
	if !ok {
		return 0
	}
	return math.Max(ov.W(), ov.H())
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Lo: Point{math.Min(r.Lo.X, s.Lo.X), math.Min(r.Lo.Y, s.Lo.Y)},
		Hi: Point{math.Max(r.Hi.X, s.Hi.X), math.Max(r.Hi.Y, s.Hi.Y)},
	}
}

// Gap returns the minimum edge-to-edge separation of r and s along the axes
// (the Chebyshev-style clearance). It is negative when they overlap, with
// magnitude equal to the smaller penetration depth.
func (r Rect) Gap(s Rect) float64 {
	dx := math.Max(r.Lo.X-s.Hi.X, s.Lo.X-r.Hi.X)
	dy := math.Max(r.Lo.Y-s.Hi.Y, s.Lo.Y-r.Hi.Y)
	if dx < 0 && dy < 0 {
		// Overlapping: report negative penetration (closest escape axis).
		return math.Max(dx, dy)
	}
	if dx < 0 {
		return dy
	}
	if dy < 0 {
		return dx
	}
	// Disjoint on both axes: diagonal clearance.
	return math.Hypot(dx, dy)
}

func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Lo, r.Hi)
}

// EnclosingRect returns the minimum axis-aligned rectangle enclosing all the
// given rectangles. ok is false when the input is empty.
func EnclosingRect(rects []Rect) (Rect, bool) {
	if len(rects) == 0 {
		return Rect{}, false
	}
	out := rects[0]
	for _, r := range rects[1:] {
		out = out.Union(r)
	}
	return out, true
}

// Clamp returns p clamped into r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Lo.X), r.Hi.X),
		Y: math.Min(math.Max(p.Y, r.Lo.Y), r.Hi.Y),
	}
}
