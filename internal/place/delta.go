package place

import (
	"cmp"
	"math"
	"slices"

	"qplacer/internal/frequency"
	"qplacer/internal/geom"
)

// This file implements the incremental (delta) gradient evaluation. Two
// independent mechanisms reuse work across Nesterov iterations, both exact
// by construction so placements stay bit-identical to a full recompute:
//
//   - lastEval records the most recent full component evaluation, keyed by
//     the exact bit pattern of its position vector. The Nesterov flow
//     re-evaluates the accepted lookahead point at the start of the next
//     step (the placer invalidates the optimizer's cached gradient after
//     re-weighting), so in steady state about one evaluation in three is a
//     verbatim repeat of the last full one. Component gradients depend only
//     on positions — the penalty weights are applied later in the combine —
//     so a bitwise-equal input implies bitwise-equal outputs, and those
//     outputs are still in the engine's component buffers: only a full
//     evaluation writes them.
//
//   - verlet maintains, per pair family, the classic Verlet active list: the
//     pairs within reach = rcut + margin of each other at the last rebuild.
//     While no instance has moved more than margin/2 since then, every
//     excluded pair provably still satisfies d > rcut and contributes
//     exactly nothing (the full scan's early-out), so evaluating only the
//     active pairs — in ascending pair order, the full scan's visit order —
//     reproduces the full scan bit for bit. The displacement check is the
//     exact-recompute guard: the moment it fails, the list is rebuilt from
//     the current positions.

// lastEval is the record of the last full evaluation: its input positions,
// its penalty values and the overflow it set. Its component gradients are
// the engine's gradWL, gradD, gradFQ, gradFS, gradC and gradWall.
type lastEval struct {
	xy                        []float64
	wl, dEnergy, fq, fs, cPot float64
	overflow                  float64
}

// replay reports whether xy is bitwise the input of the last full
// evaluation and, if so, restores the overflow that evaluation set (a
// renorm-only evaluation may have overwritten it since) and counts the
// replay. Before the first full evaluation the record is empty and matches
// nothing.
func (e *engine) replay(xy []float64) bool {
	if !bitsEqual(e.last.xy, xy) {
		return false
	}
	e.replays++
	e.overflow = e.last.overflow
	return true
}

// bitsEqual reports whether two vectors are identical down to the bit
// (Float64bits, not ==: a +0/−0 flip changes downstream bits, and NaN must
// never compare equal to itself here either way).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// verlet is one pair family's active-list state. The chain family lists
// its pairs explicitly; a frequency family finds its collision pairs within
// reach through a partner grid at each rebuild, since its pairs are the
// collision map's, too many to list (Eagle's segments make 529,263).
type verlet struct {
	pairs  [][2]int               // the chain family's pairs, ascending; nil for a frequency family
	ids    []int32                // a frequency family's instances, ascending; nil for the chain family
	grid   *frequency.PartnerGrid // their partner grid
	total  int                    // pairs in the family
	rcut   float64
	margin float64

	refXY []float64 // positions at the last rebuild
	// active holds the (i, j), i < j, pairs within rcut+margin at the last
	// rebuild, ascending: the order of a scan over the whole family. It
	// starts empty and grows on demand: the live list is a small fraction
	// of the family (about 2k of Eagle's 529k segment pairs).
	active [][2]int32

	evals, rebuilds int
	activeSum       int64
}

// newVerlet returns the active-list state of the chain family, whose pairs
// are listed.
func newVerlet(pairs [][2]int, rcut float64) *verlet {
	return &verlet{pairs: pairs, total: len(pairs), rcut: rcut, margin: rcut / 2}
}

// ensure refreshes the active list when positions have drifted past the
// guard. While 2·maxDisp < margin, a pair excluded at rebuild (distance
// ≥ rcut + margin then) still has distance > rcut now, so the active list
// remains exact.
func (v *verlet) ensure(xy []float64) {
	v.evals++
	if v.refXY == nil {
		v.refXY = make([]float64, len(xy))
		v.rebuild(xy)
	} else {
		var maxD2 float64
		for i := 0; i < len(xy); i += 2 {
			dx := xy[i] - v.refXY[i]
			dy := xy[i+1] - v.refXY[i+1]
			if d2 := dx*dx + dy*dy; d2 > maxD2 {
				maxD2 = d2
			}
		}
		if 4*maxD2 >= v.margin*v.margin {
			v.rebuild(xy)
		}
	}
	v.activeSum += int64(len(v.active))
}

func (v *verlet) rebuild(xy []float64) {
	v.rebuilds++
	copy(v.refXY, xy)
	reach := v.rcut + v.margin
	r2 := reach * reach
	if v.grid != nil {
		v.active = v.within(xy, r2, v.active[:0])
		return
	}
	v.active = v.active[:0]
	for _, p := range v.pairs {
		dx := xy[2*p[0]] - xy[2*p[1]]
		dy := xy[2*p[0]+1] - xy[2*p[1]+1]
		if dx*dx+dy*dy < r2 {
			v.active = append(v.active, [2]int32{int32(p[0]), int32(p[1])})
		}
	}
}

// within appends to out every collision pair (i, j), i < j, of a frequency
// family whose squared distance at xy is below r2, in ascending order (a
// scan's over the family's pairs), and returns it. It files the instances
// in ascending ID, each after asking for its partners filed before it.
func (v *verlet) within(xy []float64, r2 float64, out [][2]int32) [][2]int32 {
	v.grid.Reset()
	start := len(out)
	for _, j := range v.ids {
		p := geom.Point{X: xy[2*j], Y: xy[2*j+1]}
		for i := range v.grid.Near(int(j), p) {
			dx, dy := xy[2*i]-p.X, xy[2*i+1]-p.Y
			if dx*dx+dy*dy < r2 {
				out = append(out, [2]int32{int32(i), j})
			}
		}
		v.grid.Add(int(j), p)
	}
	slices.SortFunc(out[start:], func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return out
}

// pairRepulsionActive accumulates a finite-range repulsive potential
//
//	U(d) = (R² − d²)² / R³   for d < R,   0 otherwise,
//
// and its gradient over the listed pairs, in ascending order. This realizes
// the frequency repulsive force of Eq. 9 — active only inside the
// interaction radius and pushing monotonically harder as near-resonant
// instances approach — with two numerical properties the literal 1/d²
// profile lacks: the force is a polynomial in the raw coordinate
// differences (no d→0 direction singularity) and its stiffness is bounded
// by ~4/R everywhere, so stacked pairs cannot collapse the optimizer's
// stable step size and freeze the layout. Pairs off the active list would
// contribute exactly nothing (they are beyond rcut by the verlet
// guarantee), so the scatter and the running potential sum keep the bits of
// a scan over the whole family.
func pairRepulsionActive(xy []float64, active [][2]int32, grad []float64, rcut float64) float64 {
	var total float64
	r2 := rcut * rcut
	r3 := r2 * rcut
	for _, p := range active {
		i, j := p[0], p[1]
		dx := xy[2*i] - xy[2*j]
		dy := xy[2*i+1] - xy[2*j+1]
		d2 := dx*dx + dy*dy
		if d2 >= r2 {
			continue
		}
		gap := r2 - d2
		total += gap * gap / r3
		// ∂U/∂xi = −4·(R²−d²)·dx / R³.
		scale := 4 * gap / r3
		grad[2*i] -= scale * dx
		grad[2*i+1] -= scale * dy
		grad[2*j] += scale * dx
		grad[2*j+1] += scale * dy
	}
	return total
}
