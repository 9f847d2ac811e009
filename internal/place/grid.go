package place

import (
	"math"
	"slices"

	"qplacer/internal/frequency"
	"qplacer/internal/geom"
)

// pairGrid finds a frequency family's collision pairs within reach of each
// other without walking the family's pairs. A Verlet rebuild buckets the
// family's instances into one flat uniform grid per frequency class, with
// cells no narrower than the reach, so every partner of an instance within
// reach lies in the 3×3 cell neighbourhood of its cell in the grids of the
// classes its own resonates with. Coordinates clamp into the grid, so
// instances outside the region land in edge cells; clamping is monotone, so
// a pair within reach still sits in neighbouring cells.
type pairGrid struct {
	cm  *frequency.CollisionMap
	ids []int32 // the family's instances, ascending

	// The family's classes get local ranks: class[k] is the rank of
	// instance ids[k]'s class, resonant[r] the ranks of the classes rank r
	// resonates with.
	class    []int32
	resonant [][]int32

	lo     geom.Point
	cell   float64
	nx, ny int

	cellOf []int32 // index in ids → cell at the last rebuild
	// Cell c of rank r is bucket r·nx·ny + c; its instances are
	// byBucket[start[b]:start[b+1]], ascending.
	start    []int32
	byBucket []int32
	cand     []int32 // one instance's partners within reach
}

// newPairGrid returns the grid for the family ids over region. Cells are at
// least reach wide, and widened until the grids of all classes together
// have no more cells than the family has instances, so the grid's size
// follows the family's, not the region's.
func newPairGrid(cm *frequency.CollisionMap, ids []int32, region geom.Rect, reach float64) *pairGrid {
	g := &pairGrid{
		cm:       cm,
		ids:      ids,
		class:    make([]int32, len(ids)),
		lo:       region.Lo,
		cellOf:   make([]int32, len(ids)),
		byBucket: make([]int32, len(ids)),
	}
	rank := map[int]int32{}
	var classes []int
	for k, i := range ids {
		c := cm.Class(int(i))
		r, ok := rank[c]
		if !ok {
			r = int32(len(classes))
			rank[c] = r
			classes = append(classes, c)
		}
		g.class[k] = r
	}
	// A resonant class has its class's kind, so it is in the family.
	g.resonant = make([][]int32, len(classes))
	for r, c := range classes {
		for o := range cm.ResonantClasses(c) {
			g.resonant[r] = append(g.resonant[r], rank[o])
		}
	}
	// The slack keeps a pair that passes the rounded distance test in
	// neighbouring cells despite the rounding of the cell arithmetic.
	perCell := region.W() * region.H() * float64(len(classes)) / float64(max(len(ids), 1))
	g.cell = max(reach, math.Sqrt(perCell)) * (1 + 1e-9)
	g.nx = max(1, int(math.Ceil(region.W()/g.cell)))
	g.ny = max(1, int(math.Ceil(region.H()/g.cell)))
	g.start = make([]int32, len(classes)*g.nx*g.ny+1)
	return g
}

// axis returns the clamped cell coordinate of v along an axis of n cells
// starting at lo. NaN clamps to 0.
func (g *pairGrid) axis(v, lo float64, n int) int {
	q := (v - lo) / g.cell
	switch {
	case !(q >= 1):
		return 0
	case q >= float64(n):
		return n - 1
	}
	return int(q)
}

// within appends to out every collision pair (i, j), i < j, of the family
// whose squared distance at xy is below r2, in ascending lexicographic
// order — the order of a scan over the family's pairs — and returns it.
func (g *pairGrid) within(xy []float64, r2 float64, out [][2]int32) [][2]int32 {
	cells := int32(g.nx * g.ny)
	clear(g.start)
	for k, i := range g.ids {
		c := int32(g.axis(xy[2*i+1], g.lo.Y, g.ny)*g.nx + g.axis(xy[2*i], g.lo.X, g.nx))
		g.cellOf[k] = c
		g.start[g.class[k]*cells+c+1]++
	}
	for b := 1; b < len(g.start); b++ {
		g.start[b] += g.start[b-1]
	}
	// Fill bucket by bucket in ascending ID order, advancing each bucket's
	// start to its end; shifting the starts back one bucket restores them.
	for k, i := range g.ids {
		b := g.class[k]*cells + g.cellOf[k]
		g.byBucket[g.start[b]] = i
		g.start[b]++
	}
	copy(g.start[1:], g.start[:len(g.start)-1])
	g.start[0] = 0

	for k, i := range g.ids {
		cx, cy := int(g.cellOf[k])%g.nx, int(g.cellOf[k])/g.nx
		g.cand = g.cand[:0]
		for _, r := range g.resonant[g.class[k]] {
			base := int(r * cells)
			for y := max(cy-1, 0); y <= min(cy+1, g.ny-1); y++ {
				row := base + y*g.nx
				for b := row + max(cx-1, 0); b <= row+min(cx+1, g.nx-1); b++ {
					// A bucket lists ascending IDs: walk it down to i.
					for t := g.start[b+1] - 1; t >= g.start[b] && g.byBucket[t] > i; t-- {
						j := g.byBucket[t]
						if !g.cm.NearResonant(int(i), int(j)) {
							continue // segments of one resonator
						}
						dx := xy[2*i] - xy[2*j]
						dy := xy[2*i+1] - xy[2*j+1]
						if dx*dx+dy*dy < r2 {
							g.cand = append(g.cand, j)
						}
					}
				}
			}
		}
		slices.Sort(g.cand)
		for _, j := range g.cand {
			out = append(out, [2]int32{i, j})
		}
	}
	return out
}
