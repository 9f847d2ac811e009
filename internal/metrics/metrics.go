// Package metrics computes the paper's layout-quality metrics (§V-C):
// minimum enclosing rectangle area A_mer, polygon area A_poly, substrate
// utilization (Eq. 17), the frequency-hotspot proportion P_h (Eq. 18), the
// spatial-violation list feeding the fidelity model, and the impacted-qubit
// count of Fig. 12.
package metrics

import (
	"math"
	"slices"
	"sort"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/spatial"
)

// Report is the full metric set for one placed layout.
type Report struct {
	Amer           float64 // minimum enclosing rectangle area (mm²)
	Apoly          float64 // Σ component polygon areas (mm²)
	Utilization    float64 // Apoly / Amer (Eq. 17)
	Ph             float64 // frequency-hotspot proportion (Eq. 18), in %
	Violations     []Violation
	ImpactedQubits []int // device qubit indices touched by any hotspot
}

// Violation is one near-resonant pair whose padded footprints overlap.
type Violation struct {
	A, B     int     // instance IDs
	Length   float64 // intersection length (p_i ∩ p_j)
	Distance float64 // centroid distance d_c
}

// polygonRect returns the "polygon" footprint used for A_poly and the
// hotspot test: a qubit's crosstalk keep-out is its padded cell, while a
// resonator wire block occupies its padded block (the reserved ribbon).
func polygonRect(in *component.Instance) geom.Rect {
	return in.PaddedRect()
}

// apolyArea returns the instance's contribution to A_poly: the padded cell
// for qubits (the keep-out belongs to the component) and the bare wire block
// for segments (matching the paper's gray reserved-space accounting of
// Fig. 14b, which yields the ~0.7 utilization levels of Fig. 15).
func apolyArea(in *component.Instance) float64 {
	if in.Kind == component.KindQubit {
		return in.PaddedArea()
	}
	return in.W * in.H
}

// Measure computes all metrics for the placed netlist.
func Measure(nl *component.Netlist, deltaC float64) *Report {
	rep := &Report{}

	rects := make([]geom.Rect, len(nl.Instances))
	for i, in := range nl.Instances {
		rects[i] = polygonRect(in)
		rep.Apoly += apolyArea(in)
	}
	if enc, ok := geom.EnclosingRect(rects); ok {
		rep.Amer = enc.Area()
	}
	if rep.Amer > 0 {
		rep.Utilization = rep.Apoly / rep.Amer
	}

	// Hotspots: near-resonant pairs whose padded polygons overlap, found by
	// applying the collision map's pair rule (frequency.NearResonant) in the
	// scan itself, so a report needs no CollisionMap. The pairs come in
	// ascending (i, j) order, so the violations and the P_h sum keep the
	// order of a full pair sweep.
	var num float64
	impacted := map[int]bool{}
	hotspotPairs(rects, func(i, j int) {
		a, b := nl.Instances[i], nl.Instances[j]
		if !frequency.NearResonant(a, b, deltaC) {
			return
		}
		length := rects[i].IntersectionLength(rects[j])
		if length <= 0 {
			return
		}
		dc := a.Pos.Dist(b.Pos)
		num += length * dc
		rep.Violations = append(rep.Violations, Violation{
			A: i, B: j, Length: length, Distance: dc,
		})
		markImpacted(nl, a, impacted)
		markImpacted(nl, b, impacted)
	})
	if rep.Apoly > 0 {
		rep.Ph = 100 * num / rep.Apoly
	}
	rep.ImpactedQubits = sortedKeys(impacted)
	return rep
}

// hotspotPairs calls visit for every pair i < j, in ascending (i, j)
// order, whose rects may intersect: the pairs whose rects share a cell of a
// spatial grid, and every pair with a rect that has a non-finite edge,
// which no grid can file (its intersection may be NaN, and a NaN length
// still counts). The grid's clamped cell map is monotone, so two
// intersecting finite rects always share a cell.
func hotspotPairs(rects []geom.Rect, visit func(i, j int)) {
	n := len(rects)
	var broken []int // ascending
	var box geom.Rect
	cell, k := 0.0, 0
	for i, r := range rects {
		if !finiteRect(r) {
			broken = append(broken, i)
			continue
		}
		cell = max(cell, r.W(), r.H())
		if k == 0 {
			box = r
		} else {
			box = box.Union(r)
		}
		k++
	}
	// Cells at least the widest rect put each rect in at most 2×2 cells;
	// cells at least 1/√k of the layout's side keep the grid near k cells
	// when a rect lies far out.
	cell = max(cell, max(box.W(), box.H())/math.Sqrt(float64(max(k, 1))))
	if !(cell > 0) {
		cell = 1
	}
	grid := spatial.New(box, cell)
	for i, r := range rects {
		if finiteRect(r) {
			grid.Add(int32(i), r)
		}
	}
	mark := make([]int, n) // mark[j] == i+1 once j is a candidate of i
	var near []int
	for i, r := range rects {
		near = near[:0]
		if finiteRect(r) {
			x0, y0, x1, y1 := grid.Range(r)
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					for _, j := range grid.Bucket(x, y) {
						if int(j) > i && mark[j] != i+1 {
							mark[j] = i + 1
							near = append(near, int(j))
						}
					}
				}
			}
			near = append(near, broken[sort.SearchInts(broken, i+1):]...)
			slices.Sort(near)
		} else {
			for j := i + 1; j < n; j++ {
				near = append(near, j)
			}
		}
		for _, j := range near {
			visit(i, j)
		}
	}
}

// finiteRect reports whether every edge of r is a finite number.
func finiteRect(r geom.Rect) bool {
	for _, v := range [...]float64{r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// markImpacted records the qubits affected by a violating instance: the
// qubit itself, or — for a resonator segment — both endpoint qubits of its
// resonator (resonator crosstalk is non-local, §VI-B).
func markImpacted(nl *component.Netlist, in *component.Instance, set map[int]bool) {
	if in.Kind == component.KindQubit {
		set[in.Qubit] = true
		return
	}
	res := nl.Resonators[in.Resonator]
	set[res.QubitA] = true
	set[res.QubitB] = true
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	// insertion sort: lists are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// EnclosingRect returns the minimum enclosing rectangle of the layout's
// padded footprints.
func EnclosingRect(nl *component.Netlist) (geom.Rect, bool) {
	rects := make([]geom.Rect, len(nl.Instances))
	for i, in := range nl.Instances {
		rects[i] = polygonRect(in)
	}
	return geom.EnclosingRect(rects)
}

// MinResonantDistance returns the smallest centre distance between
// near-resonant instances of the given kind (∞ when no pairs exist) — a
// compact isolation indicator used by ablation studies.
func MinResonantDistance(nl *component.Netlist, kind component.Kind, deltaC float64) float64 {
	min := math.Inf(1)
	n := len(nl.Instances)
	for i := 0; i < n; i++ {
		a := nl.Instances[i]
		if a.Kind != kind {
			continue
		}
		for j := i + 1; j < n; j++ {
			b := nl.Instances[j]
			if !frequency.NearResonant(a, b, deltaC) {
				continue
			}
			if d := a.Pos.Dist(b.Pos); d < min {
				min = d
			}
		}
	}
	return min
}
