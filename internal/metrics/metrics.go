// Package metrics computes the paper's layout-quality metrics (§V-C):
// minimum enclosing rectangle area A_mer, polygon area A_poly, substrate
// utilization (Eq. 17), the frequency-hotspot proportion P_h (Eq. 18), the
// spatial-violation list feeding the fidelity model, and the impacted-qubit
// count of Fig. 12.
package metrics

import (
	"math"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
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
	// scan itself, so a report needs no CollisionMap.
	var num float64
	n := len(nl.Instances)
	impacted := map[int]bool{}
	for i := 0; i < n; i++ {
		a := nl.Instances[i]
		for j := i + 1; j < n; j++ {
			b := nl.Instances[j]
			if !frequency.NearResonant(a, b, deltaC) {
				continue
			}
			length := rects[i].IntersectionLength(rects[j])
			if length <= 0 {
				continue
			}
			dc := a.Pos.Dist(b.Pos)
			num += length * dc
			rep.Violations = append(rep.Violations, Violation{
				A: i, B: j, Length: length, Distance: dc,
			})
			markImpacted(nl, a, impacted)
			markImpacted(nl, b, impacted)
		}
	}
	if rep.Apoly > 0 {
		rep.Ph = 100 * num / rep.Apoly
	}
	rep.ImpactedQubits = sortedKeys(impacted)
	return rep
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
