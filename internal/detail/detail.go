// Package detail implements the qGDP-style detailed-placement stage: after
// legalization claims a discrete site per instance, the passes here permute
// instances over those claimed sites to recover wirelength and frequency
// margin. Every move swaps or reassigns instances within one footprint class
// (identical core size and padding), so overlap-freedom and bounds are
// preserved by construction; an exact HPWL guard additionally rolls back any
// pass that would leave the layout longer than it entered, making the
// never-increase contract unconditional.
package detail

import (
	"context"
	"math/rand"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/mcmf"
	"qplacer/internal/obs"
	"qplacer/internal/place"
)

// Config parameterizes one detailed-placement pass.
type Config struct {
	// Span receives the detail/{candidates,assign,apply} timing breakdown;
	// nil disables tracing.
	Span *obs.Span
	// Collision is the near-resonant pair map driving the frequency-margin
	// term of the move cost; nil disables the term.
	Collision *frequency.CollisionMap
	// Seed drives the swap pass's candidate sampling (default 1). The
	// reassignment pass is deterministic without randomness.
	Seed int64
	// Progress, when set, is called at the start of every round/sweep with
	// the layout's current HPWL.
	Progress func(step int, hpwl float64)
}

// Result reports one finished pass.
type Result struct {
	Moved      int // instances resting at a different position than they entered
	HPWLBefore float64
	HPWLAfter  float64
}

// maxRounds and maxSweeps cap the reassignment rounds and swap sweeps; both
// passes stop early once a round yields no improvement. maxSetSize caps the
// independent set extracted per footprint class per reassignment round,
// bounding the flow problem.
const (
	maxRounds  = 3
	maxSweeps  = 4
	maxSetSize = 64
)

// footprintClass groups instances whose rectangles are interchangeable:
// same kind, core size, and padding. Permuting positions within a class
// can neither create an overlap nor move the layout's bounding envelope.
type footprintClass struct {
	kind component.Kind
	ids  []int
}

type classKey struct {
	kind      component.Kind
	w, h, pad float64
}

func footprintClasses(nl *component.Netlist) []footprintClass {
	index := map[classKey]int{}
	var classes []footprintClass
	for _, in := range nl.Instances {
		key := classKey{kind: in.Kind, w: in.W, h: in.H, pad: in.Pad}
		ci, ok := index[key]
		if !ok {
			ci = len(classes)
			index[key] = ci
			classes = append(classes, footprintClass{kind: in.Kind})
		}
		classes[ci].ids = append(classes[ci].ids, in.ID)
	}
	return classes
}

// incidentNets maps each instance ID to the indices of its nets.
func incidentNets(nl *component.Netlist) [][]int {
	inc := make([][]int, len(nl.Instances))
	for ni, net := range nl.Nets {
		inc[net[0]] = append(inc[net[0]], ni)
		inc[net[1]] = append(inc[net[1]], ni)
	}
	return inc
}

func dist1(a, b geom.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

func cheby(a, b geom.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dy > dx {
		return dy
	}
	return dx
}

// wlAt is the total length of id's nets with id hypothetically at p — exact
// as long as no net partner moves in the same step, which the independent
// set guarantees.
func wlAt(nl *component.Netlist, inc [][]int, id int, p geom.Point) float64 {
	var sum float64
	for _, ni := range inc[id] {
		other := nl.Nets[ni][0]
		if other == id {
			other = nl.Nets[ni][1]
		}
		sum += dist1(p, nl.Instances[other].Pos)
	}
	return sum
}

// penaltyAt is the frequency-margin cost of id at p: each near-resonant
// partner inside the class's interaction radius (the legalizer's isolation
// guard, frequency.GuardMM) contributes radius − d, so the reassignment
// prefers sites that keep resonant pairs apart.
func penaltyAt(cm *frequency.CollisionMap, nl *component.Netlist, id int, p geom.Point, radius float64) float64 {
	if cm == nil {
		return 0
	}
	var sum float64
	for q := range cm.Partners(id) {
		if d := cheby(p, nl.Instances[q].Pos); d < radius {
			sum += radius - d
		}
	}
	return sum
}

// independentSet extracts up to max instances of one class, no two of which
// share a net or a near-resonant pair, scanning from a round-rotated offset
// so successive rounds give different instances their turn. Independence
// makes the per-instance move costs exact: every net partner and every
// collision partner of a selected instance stays fixed during the step.
func independentSet(nl *component.Netlist, cm *frequency.CollisionMap, inc [][]int, ids []int, round, max int) []int {
	selected := make(map[int]bool, max)
	var set []int
	offset := 0
	if len(ids) > 0 {
		offset = (round * 7) % len(ids)
	}
	for k := 0; k < len(ids) && len(set) < max; k++ {
		id := ids[(offset+k)%len(ids)]
		ok := true
		for _, ni := range inc[id] {
			other := nl.Nets[ni][0]
			if other == id {
				other = nl.Nets[ni][1]
			}
			if selected[other] {
				ok = false
				break
			}
		}
		if ok && cm != nil {
			for q := range cm.Partners(id) {
				if selected[q] {
					ok = false
					break
				}
			}
		}
		if ok {
			selected[id] = true
			set = append(set, id)
		}
	}
	return set
}

// MCMF is the reassignment pass: per footprint class it extracts an
// independent set, offers every member the sites the set currently claims
// (each move vacates one claim and takes another), prices each
// instance × site pair as Δwirelength plus the frequency-margin term, and
// solves the assignment with min-cost max-flow. A round whose exact HPWL
// recompute comes out longer is rolled back wholesale, so the pass never
// increases HPWL. Deterministic: no randomness.
func MCMF(ctx context.Context, nl *component.Netlist, cfg Config) (*Result, error) {
	before := place.HPWL(nl)
	res := &Result{HPWLBefore: before, HPWLAfter: before}
	cur := before

	classes := footprintClasses(nl)
	inc := incidentNets(nl)
	orig := nl.Positions()

	candSpan := cfg.Span.Child("candidates")
	assignSpan := cfg.Span.Child("assign")
	applySpan := cfg.Span.Child("apply")

	for round := 1; round <= maxRounds; round++ {
		if cfg.Progress != nil {
			cfg.Progress(round, cur)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		improved := false
		for _, class := range classes {
			if len(class.ids) < 2 {
				continue
			}
			candTimer := candSpan.Start()
			set := independentSet(nl, cfg.Collision, inc, class.ids, round, maxSetSize)
			sites := make([]geom.Point, len(set))
			for i, id := range set {
				sites[i] = nl.Instances[id].Pos
			}
			candTimer.End()
			if len(set) < 2 {
				continue
			}

			assignTimer := assignSpan.Start()
			n := len(set)
			radius := frequency.GuardMM(class.kind)
			costs := make([][]float64, n)
			for i, id := range set {
				row := make([]float64, n)
				for j := range row {
					row[j] = wlAt(nl, inc, id, sites[j]) +
						penaltyAt(cfg.Collision, nl, id, sites[j], radius)
				}
				costs[i] = row
			}
			assignment, _ := mcmf.Assign(costs)
			assignTimer.End()

			applyTimer := applySpan.Start()
			saved := make([]geom.Point, n)
			changed := false
			for i, id := range set {
				saved[i] = nl.Instances[id].Pos
				if assignment[i] != i {
					changed = true
				}
			}
			if changed {
				for i, id := range set {
					nl.Instances[id].Pos = sites[assignment[i]]
				}
				// The exact recompute is the contract guard: the flow
				// optimum trades wirelength against frequency margin, and
				// any trade that lengthens the layout is refused outright.
				after := place.HPWL(nl)
				if after > cur {
					for i, id := range set {
						nl.Instances[id].Pos = saved[i]
					}
				} else {
					if after < cur {
						improved = true
					}
					cur = after
				}
			}
			applyTimer.End()
		}
		if !improved {
			break
		}
	}
	// A cancellation fired from the final Progress callback must still
	// surface, even when the loop exits on its own.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.HPWLAfter = cur
	res.Moved = countMoved(nl, orig)
	return res, nil
}

// Swap is the frequency-aware local-swap hill climb: seeded candidate pairs
// within one footprint class are exchanged when the move strictly improves
// wirelength + frequency margin without lengthening the wirelength alone.
// Deterministic per seed.
func Swap(ctx context.Context, nl *component.Netlist, cfg Config) (*Result, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	before := place.HPWL(nl)
	res := &Result{HPWLBefore: before, HPWLAfter: before}
	cur := before

	candTimer := cfg.Span.Child("candidates").Start()
	classes := footprintClasses(nl)
	inc := incidentNets(nl)
	orig := nl.Positions()
	candTimer.End()

	assignSpan := cfg.Span.Child("assign")
	applySpan := cfg.Span.Child("apply")

	for sweep := 1; sweep <= maxSweeps; sweep++ {
		if cfg.Progress != nil {
			cfg.Progress(sweep, cur)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		improved := false
		for _, class := range classes {
			ids := class.ids
			if len(ids) < 2 {
				continue
			}
			radius := frequency.GuardMM(class.kind)
			attempts := 4 * len(ids)
			for k := 0; k < attempts; k++ {
				if k%64 == 63 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				searchTimer := assignSpan.Start()
				a := ids[rng.Intn(len(ids))]
				b := ids[rng.Intn(len(ids))]
				var dwl, dpen float64
				if a != b {
					dwl = swapDeltaWL(nl, inc, a, b)
					dpen = swapDeltaPenalty(cfg.Collision, nl, a, b, radius)
				}
				searchTimer.End()
				if a == b || dwl > 0 || dwl+dpen >= -1e-12 {
					continue
				}
				applyTimer := applySpan.Start()
				nl.Instances[a].Pos, nl.Instances[b].Pos =
					nl.Instances[b].Pos, nl.Instances[a].Pos
				cur += dwl
				improved = true
				applyTimer.End()
			}
		}
		if !improved {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Accepted deltas are individually exact but accumulate in move order;
	// the final recompute re-sums in netlist order and is what the contract
	// is held to. Equality to the last ulp is not guaranteed across the two
	// orders, so an (astronomically unlikely) recompute above the entry
	// value rolls the whole climb back rather than ship a longer layout.
	after := place.HPWL(nl)
	if after > before {
		nl.SetPositions(orig)
		after = before
	}
	res.HPWLAfter = after
	res.Moved = countMoved(nl, orig)
	return res, nil
}

// swapDeltaWL is the exact HPWL change of exchanging a's and b's positions:
// the union of their incident nets re-measured at the swapped positions.
func swapDeltaWL(nl *component.Netlist, inc [][]int, a, b int) float64 {
	pa, pb := nl.Instances[a].Pos, nl.Instances[b].Pos
	at := func(id int, swapped bool) geom.Point {
		if swapped {
			if id == a {
				return pb
			}
			if id == b {
				return pa
			}
		} else {
			if id == a {
				return pa
			}
			if id == b {
				return pb
			}
		}
		return nl.Instances[id].Pos
	}
	var delta float64
	for _, ni := range inc[a] {
		x, y := nl.Nets[ni][0], nl.Nets[ni][1]
		delta += dist1(at(x, true), at(y, true)) - dist1(at(x, false), at(y, false))
	}
	for _, ni := range inc[b] {
		x, y := nl.Nets[ni][0], nl.Nets[ni][1]
		if x == a || y == a {
			continue // shared net: already counted from a's side
		}
		delta += dist1(at(x, true), at(y, true)) - dist1(at(x, false), at(y, false))
	}
	return delta
}

// swapDeltaPenalty is the frequency-margin change of the swap. The (a,b)
// pair itself keeps its distance under an exchange, so only third-party
// partners contribute.
func swapDeltaPenalty(cm *frequency.CollisionMap, nl *component.Netlist, a, b int, radius float64) float64 {
	if cm == nil {
		return 0
	}
	pa, pb := nl.Instances[a].Pos, nl.Instances[b].Pos
	var delta float64
	term := func(p, q geom.Point) float64 {
		if d := cheby(p, q); d < radius {
			return radius - d
		}
		return 0
	}
	for q := range cm.Partners(a) {
		if q == b {
			continue
		}
		qp := nl.Instances[q].Pos
		delta += term(pb, qp) - term(pa, qp)
	}
	for q := range cm.Partners(b) {
		if q == a {
			continue
		}
		qp := nl.Instances[q].Pos
		delta += term(pa, qp) - term(pb, qp)
	}
	return delta
}

// countMoved compares instance positions against a Positions() snapshot
// (flat [x0 y0 …] vector) taken when the pass began.
func countMoved(nl *component.Netlist, orig []float64) int {
	moved := 0
	for i, in := range nl.Instances {
		if in.Pos.X != orig[2*i] || in.Pos.Y != orig[2*i+1] {
			moved++
		}
	}
	return moved
}
