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
	"time"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/obs"
	"qplacer/internal/place"
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
	Region    geom.Rect // placement region used for the cost (and legalizer)
	Sweeps    int       // sweeps completed
	Cost      float64   // final total cost
	Accepted  int       // accepted moves
	Runtime   time.Duration
	AvgIterMS float64 // milliseconds per sweep
}

// annealer carries per-run state.
type annealer struct {
	nl     *component.Netlist
	region geom.Rect
	rng    *rand.Rand

	xy           []float64 // working positions (2 per instance)
	halfW, halfH []float64 // charge-rect half extents
	nets         [][]int   // instance -> incident net indices
	freqPairs    [][]int   // instance -> collision pair indices
	pairOther    []int32   // pair index*2 -> both endpoints (flattened)
	pairCut      []float64 // pair index -> cutoff radius
	cell         float64   // uniform grid cell (≥ max charge extent)
	grid         map[[2]int][]int
	gridKey      [][2]int // instance -> current bucket
	totalCost    float64
	accepted     int
}

// Place runs the annealer on the netlist, mutating instance positions. The
// collision map is nil for frequency-oblivious runs (the Classic baseline).
func Place(ctx context.Context, nl *component.Netlist, cm *frequency.CollisionMap, cfg Config) (*Result, error) {
	start := time.Now()
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
	a.buildGrid()
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

	elapsed := time.Since(start)
	return &Result{
		Region:    a.region,
		Sweeps:    sweeps,
		Cost:      a.totalCost,
		Accepted:  a.accepted,
		Runtime:   elapsed,
		AvgIterMS: float64(elapsed) / float64(time.Millisecond) / float64(sweeps),
	}, nil
}

// setup precomputes per-instance geometry, net incidence, and collision-pair
// incidence.
func (a *annealer) setup(cm *frequency.CollisionMap) {
	n := len(a.nl.Instances)
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

	a.freqPairs = make([][]int, n)
	if cm != nil {
		for pi, p := range cm.Pairs {
			a.pairOther = append(a.pairOther, int32(p[0]), int32(p[1]))
			cut := place.FreqCutoffSegMM
			if a.nl.Instances[p[0]].Kind == component.KindQubit {
				cut = place.FreqCutoffMM
			}
			a.pairCut = append(a.pairCut, cut)
			a.freqPairs[p[0]] = append(a.freqPairs[p[0]], pi)
			a.freqPairs[p[1]] = append(a.freqPairs[p[1]], pi)
		}
	}
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

func (a *annealer) bucketOf(i int) [2]int {
	return [2]int{
		int(math.Floor(a.xy[2*i] / a.cell)),
		int(math.Floor(a.xy[2*i+1] / a.cell)),
	}
}

func (a *annealer) buildGrid() {
	a.grid = make(map[[2]int][]int)
	a.gridKey = make([][2]int, len(a.nl.Instances))
	for i := range a.nl.Instances {
		k := a.bucketOf(i)
		a.gridKey[i] = k
		a.grid[k] = append(a.grid[k], i)
	}
}

func (a *annealer) gridMove(i int) {
	k := a.bucketOf(i)
	old := a.gridKey[i]
	if k == old {
		return
	}
	list := a.grid[old]
	for idx, v := range list {
		if v == i {
			list[idx] = list[len(list)-1]
			a.grid[old] = list[:len(list)-1]
			break
		}
	}
	a.gridKey[i] = k
	a.grid[k] = append(a.grid[k], i)
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
	bx := int(math.Floor(x / a.cell))
	by := int(math.Floor(y / a.cell))
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			for _, j := range a.grid[[2]int{bx + dx, by + dy}] {
				if j == i {
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
	for _, pi := range a.freqPairs[i] {
		o := int(a.pairOther[2*pi])
		if o == i {
			o = int(a.pairOther[2*pi+1])
		}
		cut := a.pairCut[pi]
		d := math.Hypot(x-a.xy[2*o], y-a.xy[2*o+1])
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
	a.xy[2*i], a.xy[2*i+1] = nx, ny
	a.gridMove(i)
	a.totalCost += delta
	a.accepted++
}
