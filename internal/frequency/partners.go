package frequency

import (
	"iter"
	"math"
	"slices"

	"qplacer/internal/geom"
	"qplacer/internal/spatial"
)

// PartnerGrid answers the question the placer, the annealer and both
// legalizers ask of the collision map: which filed near-resonant partners
// of instance i lie within reach of point p? It files instances in one
// spatial grid per frequency class, in cells at least the reach of the
// class's kind wide, so such a partner lies in the 3×3 cells around p's
// cell in a resonant class's grid, p outside the region too (the grids
// clamp monotonely). Members at a non-finite position are listed apart.
type PartnerGrid struct {
	cm    *CollisionMap
	grids []*spatial.Grid // class → its grid, nil for a class with no instance here
	at    []geom.Point    // instance → where it is filed
	odd   []int32         // the filed instances at a non-finite position
}

// NewPartnerGrid returns an empty grid over region for the instances ids
// (all if nil). reach must be a function of the kind. Cells are widened
// until all classes together have about one cell per instance, so the
// grid's size follows the instance count, not the region's area.
func NewPartnerGrid(cm *CollisionMap, ids []int32, region geom.Rect, reach func(i int) float64) *PartnerGrid {
	if ids == nil {
		ids = cm.members
	}
	first := make([]int32, len(cm.byFreq)) // class → 1 + its first instance among ids, 0 for none
	classes := 0
	for _, i := range ids {
		if c := cm.class[i]; first[c] == 0 {
			first[c] = i + 1
			classes++
		}
	}
	perCell := region.W() * region.H() * float64(classes) / float64(max(len(ids), 1))
	g := &PartnerGrid{cm: cm, grids: make([]*spatial.Grid, len(first)), at: make([]geom.Point, cm.Len())}
	for c, i := range first {
		if i > 0 {
			// The slack absorbs the rounding of the cell arithmetic.
			g.grids[c] = spatial.New(region, max(reach(int(i-1)), math.Sqrt(perCell))*(1+1e-9))
		}
	}
	return g
}

// Add files instance i, one of the grid's instances and not filed, at p.
func (g *PartnerGrid) Add(i int, p geom.Point) {
	g.at[i] = p
	if finite(p) {
		g.grids[g.cm.class[i]].Add(int32(i), geom.RectAt(p, 0, 0))
	} else {
		g.odd = append(g.odd, int32(i))
	}
}

// Move refiles the filed instance i at p.
func (g *PartnerGrid) Move(i int, p geom.Point) {
	if from := g.at[i]; finite(from) {
		g.grids[g.cm.class[i]].Remove(int32(i), geom.RectAt(from, 0, 0))
	} else {
		g.odd = slices.DeleteFunc(g.odd, func(j int32) bool { return j == int32(i) })
	}
	g.Add(i, p)
}

// Reset unfiles every instance, keeping the buckets' capacity.
func (g *PartnerGrid) Reset() {
	for _, grid := range g.grids {
		if grid != nil {
			grid.Reset()
		}
	}
	g.odd = g.odd[:0]
}

// Near yields the filed near-resonant partners of instance i in the 3×3
// cells around p's, those at a non-finite position, and, if p is not
// finite, all of them, in no fixed order: a caller summing over them sorts
// them first.
func (g *PartnerGrid) Near(i int, p geom.Point) iter.Seq[int] {
	return func(yield func(int) bool) {
		cm := g.cm
		for _, j := range g.odd {
			if cm.NearResonant(i, int(j)) && !yield(int(j)) {
				return
			}
		}
		group := cm.group[i]
		for _, c := range cm.window(cm.class[i]) {
			grid := g.grids[c]
			if grid == nil {
				continue
			}
			x, y := grid.Cell(p)
			x0, y0, x1, y1 := x-1, y-1, x+1, y+1
			if !finite(p) {
				nx, ny := grid.Size()
				x0, y0, x1, y1 = 0, 0, nx-1, ny-1
			}
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					// c resonates with i's class: only the group is left.
					for _, j := range grid.Bucket(x, y) {
						if cm.group[j] != group && !yield(int(j)) {
							return
						}
					}
				}
			}
		}
	}
}

// finite reports whether p's coordinates are finite: v − v is NaN if not.
func finite(p geom.Point) bool {
	return p.X-p.X == 0 && p.Y-p.Y == 0
}
