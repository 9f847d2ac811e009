// Package anneal implements a seeded simulated-annealing global placer: an
// alternative placement backend for the same problem shape the electrostatic
// engine of internal/place solves (cf. quantum-annealing FPGA placement,
// arXiv:2312.15467). The annealer minimizes
//
//	cost = HPWL + w_o·Σ overlap(i,j) + w_f·Σ (R − d_ij)²/R
//
// over single-instance displacement moves with a Metropolis acceptance rule
// and a geometric temperature schedule. The overlap term uses the same charge
// footprints as the electrostatic density field (qubits fully padded,
// segments half-padded), and the frequency term acts on the same collision
// map with the same per-kind cutoff radii, so the two backends optimize
// comparable objectives. Runs are deterministic per seed: a single
// goroutine drives one seeded RNG.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/obs"
	"qplacer/internal/place"
	"qplacer/internal/spatial"
)

// overlapWeight scales the pairwise charge-rect overlap penalty.
const overlapWeight = 8.0

// Config holds the annealer's per-run settings. The region and the
// frequency term's cutoff radii are internal/place's TargetDensity,
// FreqCutoffMM and FreqCutoffSegMM. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Seed drives the single RNG (initial layout jitter, move proposals, and
	// acceptance coins), making runs bit-reproducible.
	Seed int64
	// Sweeps is the number of temperature steps; every sweep proposes as
	// many moves as there are instances, each targeting a uniformly random
	// instance (so a single sweep may propose several moves for one instance
	// and none for another).
	Sweeps int

	// Progress, when non-nil, is called once per completed sweep with the
	// 1-based sweep count and the current total cost. It must be fast and
	// non-blocking.
	Progress func(sweep int, cost float64)

	// Span, when non-nil, receives the run's timing breakdown: setup
	// (incidence + initial cost) and the Metropolis sweep loop.
	Span *obs.Span
}

// DefaultConfig returns the annealer's production settings.
func DefaultConfig() Config {
	return Config{
		Seed:   1,
		Sweeps: 300,
	}
}

// Result reports a finished annealing run.
type Result struct {
	Region   geom.Rect // placement region used for the cost (and legalizer)
	Sweeps   int       // sweeps completed
	Cost     float64   // final total cost
	Accepted int       // accepted moves
}

// annealer carries per-run state.
type annealer struct {
	nl     *component.Netlist
	cm     *frequency.CollisionMap // nil for a frequency-oblivious run
	region geom.Rect
	rng    *rand.Rand

	xy           []float64 // working positions (2 per instance)
	halfW, halfH []float64 // charge-rect half extents
	nets         [][]int   // instance -> incident net indices

	// The overlap grid files instances by centre in cells of side cell (≥
	// max charge extent) from the origin, covering the region so that no
	// instance is clamped. partners files them for the frequency term, nil
	// without a collision map; cand holds one query's in-cutoff partners.
	cell     float64
	grid     *spatial.Grid
	partners *frequency.PartnerGrid
	cand     []int32

	totalCost float64
	accepted  int
}

// Place runs the annealer on the netlist, mutating instance positions. The
// collision map is nil for frequency-oblivious runs (the Classic baseline).
func Place(ctx context.Context, nl *component.Netlist, cm *frequency.CollisionMap, cfg Config) (*Result, error) {
	if cfg.Sweeps <= 0 {
		return nil, fmt.Errorf("anneal: Sweeps must be positive")
	}
	n := len(nl.Instances)
	if n == 0 {
		return nil, fmt.Errorf("anneal: empty netlist")
	}

	a := &annealer{nl: nl, rng: rand.New(rand.NewSource(cfg.Seed))}
	side := math.Sqrt(place.TotalChargeArea(nl) / place.TargetDensity)
	a.region = geom.NewRect(0, 0, side, side)
	setupTimer := cfg.Span.Child("setup").Start()
	a.setup(cm)
	a.initialPositions()
	a.fillGrids()
	a.totalCost = a.fullCost()
	setupTimer.End()

	// Temperature scale: the mean |Δcost| of a burst of random probe moves,
	// so acceptance starts permissive regardless of netlist size, then cools
	// geometrically to a quench.
	t0 := a.probeScale()
	tEnd := t0 * 1e-3
	cool := math.Pow(tEnd/t0, 1/math.Max(1, float64(cfg.Sweeps-1)))

	temp := t0
	sweeps := 0
	sweepTimer := cfg.Span.Child("sweeps").Start()
	for s := 0; s < cfg.Sweeps; s++ {
		if err := ctx.Err(); err != nil {
			sweepTimer.End()
			a.nl.SetPositions(a.xy)
			return nil, err
		}
		// Move radius shrinks with temperature: global shuffles early,
		// local refinement late.
		step := a.region.W() * (0.05 + 0.45*temp/t0)
		for m := 0; m < n; m++ {
			a.tryMove(a.rng.Intn(n), step, temp)
		}
		sweeps++
		temp *= cool
		if cfg.Progress != nil {
			cfg.Progress(sweeps, a.totalCost)
		}
	}
	sweepTimer.End()
	a.nl.SetPositions(a.xy)

	return &Result{
		Region:   a.region,
		Sweeps:   sweeps,
		Cost:     a.totalCost,
		Accepted: a.accepted,
	}, nil
}

// setup precomputes per-instance geometry and net incidence.
func (a *annealer) setup(cm *frequency.CollisionMap) {
	n := len(a.nl.Instances)
	a.cm = cm
	a.halfW = make([]float64, n)
	a.halfH = make([]float64, n)
	maxExtent := 0.0
	for i, in := range a.nl.Instances {
		var w, h float64
		if in.Kind == component.KindQubit {
			w, h = in.PaddedW(), in.PaddedH()
		} else {
			w, h = in.W+in.Pad, in.H+in.Pad
		}
		a.halfW[i], a.halfH[i] = w/2, h/2
		maxExtent = math.Max(maxExtent, math.Max(w, h))
	}
	// A cell at least as large as the biggest charge box means any
	// overlapping pair sits within the 3×3 bucket neighbourhood.
	a.cell = maxExtent

	a.nets = make([][]int, n)
	for ni, net := range a.nl.Nets {
		a.nets[net[0]] = append(a.nets[net[0]], ni)
		a.nets[net[1]] = append(a.nets[net[1]], ni)
	}

}

// cutoff is the frequency term's radius for instance i's kind.
func (a *annealer) cutoff(i int) float64 {
	if a.nl.Instances[i].Kind == component.KindQubit {
		return place.FreqCutoffMM
	}
	return place.FreqCutoffSegMM
}

// initialPositions seeds qubits at their scaled canonical coordinates and
// strings segments along their resonator's edge line — the same warm start
// the electrostatic engine uses, with seeded jitter to break ties.
func (a *annealer) initialPositions() {
	dev := a.nl.Device
	lo, hi := dev.Coords[0], dev.Coords[0]
	for _, p := range dev.Coords {
		lo.X, lo.Y = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y)
		hi.X, hi.Y = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y)
	}
	spanX := math.Max(hi.X-lo.X, 1e-9)
	spanY := math.Max(hi.Y-lo.Y, 1e-9)
	inner := a.region.Inflate(-0.2 * a.region.W())
	jitter := func(scale float64) float64 { return (a.rng.Float64() - 0.5) * scale }
	j := a.region.W() / 50

	a.xy = make([]float64, 2*len(a.nl.Instances))
	for q, instID := range a.nl.QubitInst {
		c := dev.Coords[q]
		a.xy[2*instID] = inner.Lo.X + (c.X-lo.X)/spanX*inner.W() + jitter(j)
		a.xy[2*instID+1] = inner.Lo.Y + (c.Y-lo.Y)/spanY*inner.H() + jitter(j)
	}
	for _, res := range a.nl.Resonators {
		ia := a.nl.QubitInst[res.QubitA]
		ib := a.nl.QubitInst[res.QubitB]
		k := len(res.Segments)
		for s, sid := range res.Segments {
			t := float64(s+1) / float64(k+1)
			a.xy[2*sid] = a.xy[2*ia] + t*(a.xy[2*ib]-a.xy[2*ia]) + jitter(3*j)
			a.xy[2*sid+1] = a.xy[2*ia+1] + t*(a.xy[2*ib+1]-a.xy[2*ia+1]) + jitter(3*j)
		}
	}
	for i := range a.nl.Instances {
		a.clamp(i)
	}
}

// clamp keeps instance i's charge rect inside the region.
func (a *annealer) clamp(i int) {
	r := a.region
	a.xy[2*i] = math.Min(math.Max(a.xy[2*i], r.Lo.X+a.halfW[i]), r.Hi.X-a.halfW[i])
	a.xy[2*i+1] = math.Min(math.Max(a.xy[2*i+1], r.Lo.Y+a.halfH[i]), r.Hi.Y-a.halfH[i])
}

// fillGrids files every instance, in ascending ID order, at its centre: in
// the overlap grid and, with a collision map, in the partner grid, whose
// cells are at least the cutoff of the instance's kind wide.
func (a *annealer) fillGrids() {
	a.grid = spatial.New(a.region, a.cell)
	if a.cm != nil {
		a.partners = frequency.NewPartnerGrid(a.cm, nil, a.region, a.cutoff)
	}
	for i := range a.nl.Instances {
		p := geom.Point{X: a.xy[2*i], Y: a.xy[2*i+1]}
		a.grid.Add(int32(i), geom.RectAt(p, 0, 0))
		if a.partners != nil {
			a.partners.Add(i, p)
		}
	}
}

// moveTo moves instance i to (x, y). It re-files i in the overlap grid only
// if its cell changes: instances that stay in their cell keep their place
// in its bucket, so the overlap sum's order follows the accepted moves
// alone.
func (a *annealer) moveTo(i int, x, y float64) {
	from, to := geom.Point{X: a.xy[2*i], Y: a.xy[2*i+1]}, geom.Point{X: x, Y: y}
	a.xy[2*i], a.xy[2*i+1] = x, y
	fx, fy := a.grid.Cell(from)
	if tx, ty := a.grid.Cell(to); fx != tx || fy != ty {
		a.grid.Remove(int32(i), geom.RectAt(from, 0, 0))
		a.grid.Add(int32(i), geom.RectAt(to, 0, 0))
	}
	if a.partners != nil {
		a.partners.Move(i, to)
	}
}

// instCost is the cost mass attached to instance i at position (x, y): its
// incident net half-perimeters, its pairwise overlaps with grid neighbours,
// and its frequency-pair penalties. Moving one instance changes exactly
// these terms, so Δcost of a move is instCost(new) − instCost(old).
func (a *annealer) instCost(i int, x, y float64) float64 {
	var cost float64
	for _, ni := range a.nets[i] {
		net := a.nl.Nets[ni]
		o := net[0]
		if o == i {
			o = net[1]
		}
		cost += math.Abs(x-a.xy[2*o]) + math.Abs(y-a.xy[2*o+1])
	}
	// A probe off the grid (probeScale does not clamp) meets no overlap:
	// only cells on the grid hold instances.
	bx := int(math.Floor(x / a.cell))
	by := int(math.Floor(y / a.cell))
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			for _, j := range a.grid.Bucket(bx+dx, by+dy) {
				if int(j) == i {
					continue
				}
				ox := math.Min(x+a.halfW[i], a.xy[2*j]+a.halfW[j]) - math.Max(x-a.halfW[i], a.xy[2*j]-a.halfW[j])
				if ox <= 0 {
					continue
				}
				oy := math.Min(y+a.halfH[i], a.xy[2*j+1]+a.halfH[j]) - math.Max(y-a.halfH[i], a.xy[2*j+1]-a.halfH[j])
				if oy <= 0 {
					continue
				}
				cost += overlapWeight * ox * oy
			}
		}
	}
	if a.partners == nil {
		return cost
	}
	// Only partners within the cutoff along both axes can add a term:
	// Hypot(dx, dy) ≥ max(|dx|, |dy|), and a NaN offset fails every test.
	// The terms are summed in ascending partner ID, so the sum does not
	// depend on the order of the grid's buckets.
	cut := a.cutoff(i)
	a.cand = a.cand[:0]
	for j := range a.partners.Near(i, geom.Point{X: x, Y: y}) {
		if math.Abs(x-a.xy[2*j]) < cut && math.Abs(y-a.xy[2*j+1]) < cut {
			a.cand = append(a.cand, int32(j))
		}
	}
	slices.Sort(a.cand)
	for _, j := range a.cand {
		d := math.Hypot(x-a.xy[2*j], y-a.xy[2*j+1])
		if d < cut {
			gap := cut - d
			cost += gap * gap / cut
		}
	}
	return cost
}

// fullCost evaluates the whole objective from scratch (used once at start).
// Every term in instCost is a pairwise interaction, so summing instCost over
// all instances counts each net, overlap, and frequency pair exactly twice.
func (a *annealer) fullCost() float64 {
	var sum float64
	for i := range a.nl.Instances {
		sum += a.instCost(i, a.xy[2*i], a.xy[2*i+1])
	}
	return sum / 2
}

// probeScale estimates the cost scale of one move by sampling random
// displacements without committing them.
func (a *annealer) probeScale() float64 {
	n := len(a.nl.Instances)
	step := a.region.W() / 4
	var sum float64
	const probes = 64
	for p := 0; p < probes; p++ {
		i := a.rng.Intn(n)
		ox, oy := a.xy[2*i], a.xy[2*i+1]
		nx := ox + (a.rng.Float64()-0.5)*step
		ny := oy + (a.rng.Float64()-0.5)*step
		sum += math.Abs(a.instCost(i, nx, ny) - a.instCost(i, ox, oy))
	}
	if sum == 0 {
		return 1
	}
	return sum / probes
}

// tryMove proposes one Metropolis move for instance i.
func (a *annealer) tryMove(i int, step, temp float64) {
	ox, oy := a.xy[2*i], a.xy[2*i+1]
	nx := ox + (a.rng.Float64()-0.5)*step
	ny := oy + (a.rng.Float64()-0.5)*step
	nx = math.Min(math.Max(nx, a.region.Lo.X+a.halfW[i]), a.region.Hi.X-a.halfW[i])
	ny = math.Min(math.Max(ny, a.region.Lo.Y+a.halfH[i]), a.region.Hi.Y-a.halfH[i])

	delta := a.instCost(i, nx, ny) - a.instCost(i, ox, oy)
	if delta > 0 && a.rng.Float64() >= math.Exp(-delta/temp) {
		return
	}
	a.moveTo(i, nx, ny)
	a.totalCost += delta
	a.accepted++
}
