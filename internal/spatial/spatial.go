// Package spatial is the one neighbourhood index of the pipeline: a flat,
// row-major uniform grid of ID buckets. The shelf legalizer files its placed
// rects in one, the placer rebuilds its Verlet lists from one per frequency
// class, and the annealer finds overlapping neighbours and frequency
// partners through them.
package spatial

import (
	"math"
	"slices"

	"qplacer/internal/geom"
)

// Grid buckets IDs by the cells their rects cover. Coordinates clamp into
// the grid (NaN to the first cell); clamping is monotone, so overlapping
// rects share a cell, and points less than a cell apart along both axes
// sit in neighbouring cells.
type Grid struct {
	lo      geom.Point
	cell    float64
	nx, ny  int
	buckets [][]int32 // cell y*nx+x → IDs
}

// New returns an empty grid of square cells of side cell over r, from r.Lo.
// r.Hi falls in the last cell, so each axis has floor(extent/cell) + 1
// cells, or 1 if that is not a number.
func New(r geom.Rect, cell float64) *Grid {
	g := &Grid{lo: r.Lo, cell: cell, nx: math.MaxInt32, ny: math.MaxInt32}
	x, y := g.Cell(r.Hi)
	g.nx, g.ny = x+1, y+1
	g.buckets = make([][]int32, g.nx*g.ny)
	return g
}

// Size returns the grid's cell counts along x and y.
func (g *Grid) Size() (nx, ny int) { return g.nx, g.ny }

func (g *Grid) coord(v, lo float64, n int) int {
	f := math.Floor((v - lo) / g.cell)
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int(f)
}

// Cell returns the clamped cell of p.
func (g *Grid) Cell(p geom.Point) (x, y int) {
	return g.coord(p.X, g.lo.X, g.nx), g.coord(p.Y, g.lo.Y, g.ny)
}

// Range returns the clamped cells r covers: x0..x1 by y0..y1, inclusive.
func (g *Grid) Range(r geom.Rect) (x0, y0, x1, y1 int) {
	x0, y0 = g.Cell(r.Lo)
	x1, y1 = g.Cell(r.Hi)
	return
}

// Add appends id to the bucket of every cell r covers.
func (g *Grid) Add(id int32, r geom.Rect) {
	x0, y0, x1, y1 := g.Range(r)
	for y := y0; y <= y1; y++ {
		for b := y*g.nx + x0; b <= y*g.nx+x1; b++ {
			g.buckets[b] = append(g.buckets[b], id)
		}
	}
}

// Remove takes id, added with rect r, out of every cell r covers; each
// bucket's last ID takes its place.
func (g *Grid) Remove(id int32, r geom.Rect) {
	x0, y0, x1, y1 := g.Range(r)
	for y := y0; y <= y1; y++ {
		for b := y*g.nx + x0; b <= y*g.nx+x1; b++ {
			list := g.buckets[b]
			if k := slices.Index(list, id); k >= 0 {
				list[k] = list[len(list)-1]
				g.buckets[b] = list[:len(list)-1]
			}
		}
	}
}

// Bucket returns the IDs in cell (x, y), nil for a cell off the grid. The
// slice is the grid's own, valid until the next Add, Remove or Reset.
func (g *Grid) Bucket(x, y int) []int32 {
	if x < 0 || x >= g.nx || y < 0 || y >= g.ny {
		return nil
	}
	return g.buckets[y*g.nx+x]
}

// Reset empties every bucket but keeps its capacity, so a refill with as
// many IDs per cell allocates nothing.
func (g *Grid) Reset() {
	for b := range g.buckets {
		g.buckets[b] = g.buckets[b][:0]
	}
}
