package place

import (
	"math"
	"slices"

	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/spatial"
)

// pairGrid finds a frequency family's collision pairs within reach of each
// other without walking the family's pairs. A Verlet rebuild files the
// family's instances into one spatial grid per frequency class, with cells
// no narrower than the reach, so every partner of an instance within reach
// lies in the 3×3 cell neighbourhood of its cell in the grids of the
// classes its own resonates with. Coordinates clamp into the grids, so
// instances outside the region land in edge cells; clamping is monotone, so
// a pair within reach still sits in neighbouring cells.
type pairGrid struct {
	cm    *frequency.CollisionMap
	ids   []int32         // the family's instances, ascending
	grids []*spatial.Grid // class → its grid, nil for a class outside the family
	cand  []int32         // one instance's partners within reach
}

// newPairGrid returns the grid for the family ids over region. Cells are at
// least reach wide, and widened until the grids of all classes together
// have about as many cells as the family has instances, so the grid's size
// follows the family's, not the region's.
func newPairGrid(cm *frequency.CollisionMap, ids []int32, region geom.Rect, reach float64) *pairGrid {
	in := make([]bool, cm.NumClasses())
	classes := 0
	for _, i := range ids {
		if c := cm.Class(int(i)); !in[c] {
			in[c] = true
			classes++
		}
	}
	// The slack keeps a pair that passes the rounded distance test in
	// neighbouring cells despite the rounding of the cell arithmetic.
	perCell := region.W() * region.H() * float64(classes) / float64(max(len(ids), 1))
	cell := max(reach, math.Sqrt(perCell)) * (1 + 1e-9)
	// A resonant class has its class's kind, so it is in the family.
	g := &pairGrid{cm: cm, ids: ids, grids: make([]*spatial.Grid, len(in))}
	for c := range in {
		if in[c] {
			g.grids[c] = spatial.New(region, cell)
		}
	}
	return g
}

// within appends to out every collision pair (i, j), i < j, of the family
// whose squared distance at xy is below r2, in ascending lexicographic
// order — the order of a scan over the family's pairs — and returns it.
func (g *pairGrid) within(xy []float64, r2 float64, out [][2]int32) [][2]int32 {
	for _, grid := range g.grids {
		if grid != nil {
			grid.Reset()
		}
	}
	// Filled in ascending ID order, every bucket lists ascending IDs.
	for _, i := range g.ids {
		g.grids[g.cm.Class(int(i))].Add(i, geom.RectAt(geom.Point{X: xy[2*i], Y: xy[2*i+1]}, 0, 0))
	}

	for _, i := range g.ids {
		p := geom.Point{X: xy[2*i], Y: xy[2*i+1]}
		g.cand = g.cand[:0]
		for c := range g.cm.ResonantClasses(g.cm.Class(int(i))) {
			grid := g.grids[c]
			cx, cy := grid.Cell(p)
			for y := cy - 1; y <= cy+1; y++ {
				for x := cx - 1; x <= cx+1; x++ {
					// Walk the bucket down to i.
					b := grid.Bucket(x, y)
					for t := len(b) - 1; t >= 0 && b[t] > i; t-- {
						j := b[t]
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
