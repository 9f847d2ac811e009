// Package spatial is the one neighbourhood index of the pipeline: a flat,
// row-major uniform grid of ID buckets. The shelf legalizer files its placed
// rects in one and the annealer its instances, for overlap queries, and
// frequency.PartnerGrid keeps one per frequency class for the near-resonant
// partner queries of the placer's Verlet rebuilds, the annealer and both
// legalizers' isolation guards. Pairs proposes the candidate pairs of a
// whole layout from one, for the metrics' hotspot scan and the verifier's
// pair checks.
package spatial

import (
	"iter"
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

// Pairs returns the candidate pairs of rects: every pair i < j whose rects
// share a cell of one grid, and every pair with a rect the grid does not
// file: one with a non-finite edge (such a pair may still intersect, or
// compare as NaN), or one wider or taller than the grid itself. The clamped
// cell map is monotone, so every pair of intersecting rects is a candidate.
// The pairs come in ascending (i, j) order, the order of a full O(n²)
// sweep. The grid is built once, here: the sequence may be ranged any
// number of times, as long as rects stays unchanged.
//
// Pairs and seq are small enough to inline, so a range over Pairs(rects)
// calls the scan directly and its loop body stays off the heap.
func Pairs(rects []geom.Rect) iter.Seq2[int, int] {
	return newPairScan(rects).seq()
}

// pairScan is the grid behind one Pairs call.
type pairScan struct {
	rects []geom.Rect
	all   []int32 // ascending indices of the rects paired with every rect
	grid  *Grid
}

// newPairScan files the rects in a grid over the finite rects' extent. If
// a cell then holds over a quarter of them, a few far-out or oversized
// rects have stretched the cells, so the rects are filed again over the
// extent of their edges without the outermost 1/64 on each side.
func newPairScan(rects []geom.Rect) *pairScan {
	ps := &pairScan{rects: rects}
	var box geom.Rect
	k := 0
	for _, r := range rects {
		if finite(r) {
			if k == 0 {
				box = r
			} else {
				box = box.Union(r)
			}
			k++
		}
	}
	ps.file(box)
	if k >= 64 && slices.ContainsFunc(ps.grid.buckets, func(b []int32) bool { return len(b) > k/4 }) {
		ps.file(innerBox(rects, k))
	}
	return ps
}

// file puts every finite rect no wider or taller than box in a grid over
// box and lists the others in all. The cells are at least the widest rect
// filed, so each lies in at most 2×2 cells, and at least 1/√n of the box's
// side, so the grid stays near n cells when a rect lies far out.
func (ps *pairScan) file(box geom.Rect) {
	limit := max(box.W(), box.H())
	ps.all = ps.all[:0]
	cell, n := 0.0, 0
	for i, r := range ps.rects {
		if side := max(r.W(), r.H()); !finite(r) || side > limit {
			ps.all = append(ps.all, int32(i))
		} else {
			cell = max(cell, side)
			n++
		}
	}
	cell = max(cell, limit/math.Sqrt(float64(max(n, 1))))
	if !(cell > 0) {
		cell = 1
	}
	ps.grid = New(box, cell)
	all := ps.all
	for i, r := range ps.rects {
		if len(all) > 0 && int(all[0]) == i {
			all = all[1:]
		} else {
			ps.grid.Add(int32(i), r)
		}
	}
}

// innerBox returns the box of the k finite rects' edges without the
// outermost 1/64 of them on each side.
func innerBox(rects []geom.Rect, k int) geom.Rect {
	edges := make([]float64, 4*k)
	lx, ly, hx, hy := edges[:k], edges[k:2*k], edges[2*k:3*k], edges[3*k:]
	k = 0
	for _, r := range rects {
		if finite(r) {
			lx[k], ly[k], hx[k], hy[k] = r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y
			k++
		}
	}
	for _, vs := range [][]float64{lx, ly, hx, hy} {
		slices.Sort(vs)
	}
	q := k / 64
	return geom.Rect{Lo: geom.Point{X: lx[q], Y: ly[q]}, Hi: geom.Point{X: hx[k-1-q], Y: hy[k-1-q]}}
}

func (ps *pairScan) seq() iter.Seq2[int, int] {
	return func(yield func(i, j int) bool) { ps.each(yield) }
}

func (ps *pairScan) each(yield func(i, j int) bool) {
	n := len(ps.rects)
	mark := make([]int32, n)     // mark[j] == i+1 once j is a candidate of i
	near := make([]int32, 0, 64) // on the stack unless a rect has more candidates
	all := ps.all                // those of ps.all after i
	for i, r := range ps.rects {
		if len(all) > 0 && int(all[0]) == i {
			all = all[1:]
			for j := i + 1; j < n; j++ {
				if !yield(i, j) {
					return
				}
			}
			continue
		}
		near = near[:0]
		x0, y0, x1, y1 := ps.grid.Range(r)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				for _, j := range ps.grid.Bucket(x, y) {
					if int(j) > i && mark[j] != int32(i+1) {
						mark[j] = int32(i + 1)
						near = append(near, j)
					}
				}
			}
		}
		near = append(near, all...)
		slices.Sort(near)
		for _, j := range near {
			if !yield(i, int(j)) {
				return
			}
		}
	}
}

// finite reports whether every edge of r is a finite number.
func finite(r geom.Rect) bool {
	for _, v := range [...]float64{r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
