// Package place implements the paper's primary contribution: the
// frequency-aware electrostatic analytical placement engine of §IV-C. It
// minimizes
//
//	f(x, y) = WL(x, y) + λ·D(x, y) + λf·F(x, y)            (Eq. 14)
//
// where WL is a smoothed wirelength over the 2-pin net chains, D is the
// ePlace electrostatic density penalty (instances as positive charges, a
// spectral Poisson solve produces the spreading field), and F is the
// frequency repulsive potential acting only on near-resonant collision-map
// pairs (Eqs. 9–10). Penalty weights escalate every iteration so the engine
// glides from pure area/wirelength minimization to constraint satisfaction.
//
// ModeClassic disables the frequency force (λf = 0), reproducing the
// crosstalk-oblivious classical baseline of §V-B with identical
// hyperparameters, exactly as the paper's comparison requires.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"qplacer/internal/component"
	"qplacer/internal/fft"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/obs"
	"qplacer/internal/optim"
	"qplacer/internal/poisson"
)

// Mode selects the placement scheme.
type Mode int

const (
	// ModeQplacer is the full frequency-aware engine.
	ModeQplacer Mode = iota
	// ModeClassic is the same engine with the frequency force disabled.
	ModeClassic
)

// String names the mode ("qplacer", "classic").
func (m Mode) String() string {
	switch m {
	case ModeQplacer:
		return "qplacer"
	case ModeClassic:
		return "classic"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// The evaluation's fixed hyperparameters. TargetDensity and the frequency
// cutoff radii are exported because the annealer (internal/anneal) sizes its
// region and frequency term with the same values.
const (
	// TargetDensity D̂ sizes the placement region:
	// side = √(Σ charge areas / D̂).
	TargetDensity = 0.8
	// FreqCutoffMM is the interaction radius of the repulsive force between
	// qubit pairs: pairs farther apart feel nothing (keeps the potential
	// local, §IV-C1). Segment pairs use FreqCutoffSegMM — wire blocks are
	// small (padded ~0.5 mm), need proportionally less separation, and a
	// large radius over their sheer pair count would jam the optimizer.
	FreqCutoffMM    = 3.0
	FreqCutoffSegMM = 0.7
)

const (
	// stopOverflow ends the Nesterov loop early once the density overflow
	// drops below this fraction, but never before minIters iterations.
	minIters     = 250
	stopOverflow = 0.08
	// lambdaGrowth multiplies the density force ratio each iteration;
	// freqLambdaGrowth does the same for the frequency ratios.
	lambdaGrowth     = 1.08
	freqLambdaGrowth = 1.08
)

// Config holds the per-run settings; the hyperparameters are the constants
// above. The zero value is not valid; use DefaultConfig. Classic and Qplacer
// runs share every setting except Mode, matching the paper's fair-comparison
// setup.
type Config struct {
	Mode Mode

	// MaxIters bounds the Nesterov loop.
	MaxIters int

	// Seed drives the deterministic initial-placement jitter.
	Seed int64

	// Progress, when non-nil, is called once per completed iteration with
	// the 1-based iteration count and the current density overflow. It rides
	// on values the loop computes anyway, so it adds no work; it must be
	// fast and non-blocking.
	Progress func(iter int, overflow float64)

	// Span, when non-nil, receives the run's timing breakdown: the gradient
	// components (wirelength, density with its rasterize/poisson/field
	// phases, frequency, chain, boundary) and the per-coordinate combine.
	// These are wall-only aggregating sub-spans, cheap enough for the
	// iteration loop.
	Span *obs.Span
}

// DefaultConfig returns the settings used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Mode:     ModeQplacer,
		MaxIters: 600,
		Seed:     1,
	}
}

// Result reports a finished global placement.
type Result struct {
	Mode       Mode
	Region     geom.Rect // placement region used for density
	Iterations int
	HPWL       float64 // final half-perimeter wirelength (mm)
	Overflow   float64 // final density overflow fraction
}

// chargeArea returns the electrostatic charge (area) of an instance. Qubits
// use their fully padded footprint; resonator segments use a half-padded
// footprint, reflecting that same-resonator blocks pack contiguously and
// padding is shared between abutting neighbours (§IV-B2, Fig. 8d).
func chargeArea(in *component.Instance) (w, h float64) {
	switch in.Kind {
	case component.KindQubit:
		return in.PaddedW(), in.PaddedH()
	default:
		return in.W + in.Pad, in.H + in.Pad
	}
}

// TotalChargeArea sums the density charge areas of a netlist.
func TotalChargeArea(nl *component.Netlist) float64 {
	var a float64
	for _, in := range nl.Instances {
		w, h := chargeArea(in)
		a += w * h
	}
	return a
}

// engine carries per-run state.
type engine struct {
	cfg    Config
	nl     *component.Netlist
	cm     *frequency.CollisionMap
	region geom.Rect
	solver *poisson.Solver

	chargeW, chargeH []float64
	gamma            float64 // wirelength smoothing
	freqSmooth       float64 // distance smoothing s of the 1/(d+s) potential

	lambda   float64 // density weight
	lambdaFQ float64 // frequency weight, qubit pairs
	lambdaFS float64 // frequency weight, segment pairs
	wall     float64 // boundary spring weight

	// scratch
	gradWL, gradD, gradWall, gradC []float64
	gradFQ, gradFS                 []float64
	overflow                       float64
	lambdaC                        float64 // chain-spacing weight
	chainPairs                     [][2]int
	chainR0                        float64

	// Delta evaluation: the last full evaluation's record and one Verlet
	// active list per pair family. evalRenorm computes into renormWL and
	// renormD, so only a full evaluation writes the component gradients and
	// they stay the last one's outputs until the next.
	last              lastEval
	vlQ, vlS, vlC     *verlet
	renormWL, renormD []float64

	// Evaluation counts for the trace note: every component computed, only
	// what the re-weighting reads, and replays of the last full evaluation.
	fullEvals, renormEvals, replays int

	// Aggregating trace sub-spans of cfg.Span (all nil when untraced).
	spWL, spDen, spRaster, spField *obs.Span
	spFreq, spChain, spWall        *obs.Span
	spCombine                      *obs.Span
}

// PlaceCtx runs global placement on the netlist, mutating instance
// positions. The collision map may be nil for ModeClassic. The Nesterov loop
// checks ctx once per iteration and returns ctx.Err() as soon as it fires,
// leaving the netlist at the positions of the last completed iteration.
func PlaceCtx(ctx context.Context, nl *component.Netlist, cm *frequency.CollisionMap, cfg Config) (*Result, error) {
	if cfg.MaxIters <= 0 {
		return nil, fmt.Errorf("place: MaxIters must be positive")
	}
	if cfg.Mode == ModeQplacer && cm == nil {
		return nil, fmt.Errorf("place: Qplacer mode requires a collision map")
	}
	if len(nl.Instances) == 0 {
		return nil, fmt.Errorf("place: empty netlist")
	}

	e := newEngine(nl, cm, cfg)

	// Penalty control: instead of multiplying λ unboundedly (which lets the
	// density term outgrow the wirelength term by orders of magnitude and
	// collapses the stable step size), the engine re-normalizes each weight
	// every iteration against the live gradient norms,
	//
	//	λ = ratio_D · ‖∇WL‖₁ / ‖∇D‖₁,
	//
	// and escalates only the dimensionless ratio. This keeps the force
	// balance explicit: ratio 1 means density pressure equals wirelength
	// pull; the schedule walks it up to ratioCap.
	x0 := nl.Positions()
	e.evalComponents(x0)
	const (
		ratioD0    = 1.0
		ratioF0    = 0.5
		ratioCap   = 64.0
		ratioFQCap = 512.0 // qubit pairs: few, so high pressure is cheap
		ratioFSCap = 48.0  // segment pairs: many, keep stiffness moderate
	)
	ratioD, ratioFQ, ratioFS := ratioD0, ratioF0, ratioF0
	const ratioC = 16.0 // chain anti-stacking pressure
	// springPeak is the maximum force of the unit-weight polynomial spring
	// U = (R²−d²)²/R³, attained at d = R/√3: 8/(3√3) · 1/R.
	const springPeak = 1.5396
	renorm := func(gradWL, gradD []float64) {
		wlNorm := l1(gradWL) + 1e-12
		// Typical per-coordinate wirelength gradient: the force scale one
		// instance actually feels.
		gBar := wlNorm / float64(len(gradWL))
		if dNorm := l1(gradD); dNorm > 0 {
			e.lambda = ratioD * wlNorm / dNorm
		}
		// Pair weights are normalized per pair, not per aggregate: a spring
		// at weight λ exerts at most λ·springPeak/R, which is pinned to
		// ratio·ḡ. Feasible pairs separate decisively; infeasible pairs
		// (e.g. same-level tree siblings tied to one parent) lose boundedly
		// instead of jamming the whole system with runaway pressure.
		if cfg.Mode == ModeQplacer {
			e.lambdaFQ = ratioFQ * gBar * FreqCutoffMM / springPeak
			e.lambdaFS = ratioFS * gBar * FreqCutoffSegMM / springPeak
		}
		e.lambdaC = ratioC * gBar * e.chainR0 / springPeak
		e.wall = math.Max(e.lambda, 1)
	}
	renorm(e.gradWL, e.gradD)

	opt := optim.NewNesterov(x0, e.gradient, e.region.W()/100)
	opt.MaxStep = e.region.W() / 4 // a step never crosses a quarter-region

	iters := 0
	bestOverflow := math.Inf(1)
	sinceImprove := 0
	for it := 0; it < cfg.MaxIters; it++ {
		if err := ctx.Err(); err != nil {
			nl.SetPositions(opt.X())
			return nil, err
		}
		opt.Step()
		iters++
		// Escalate the force ratios while the density constraint is
		// violated; renormalize weights against the current gradients. The
		// optimizer's cached gradient belongs to the old weights, so it is
		// invalidated after every update.
		if e.overflow > stopOverflow {
			if ratioD < ratioCap {
				ratioD *= lambdaGrowth
			}
		}
		// Frequency pressure keeps ramping even after density converges:
		// spatial isolation is the second phase of the anneal.
		if ratioFQ < ratioFQCap {
			ratioFQ *= freqLambdaGrowth
		}
		if ratioFS < ratioFSCap {
			ratioFS *= freqLambdaGrowth
		}
		// renorm reads only ‖∇WL‖₁, ‖∇D‖₁ and the overflow (evalRenorm
		// says why the other components may stay stale).
		renorm(e.evalRenorm(opt.X()))
		opt.InvalidateGradient()
		if cfg.Progress != nil {
			cfg.Progress(iters, e.overflow)
		}

		if e.overflow < bestOverflow*0.99 {
			bestOverflow = e.overflow
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if it >= minIters &&
			(e.overflow < stopOverflow || sinceImprove > 150) {
			break
		}
	}

	final := append([]float64(nil), opt.X()...)
	e.clampInto(final)
	nl.SetPositions(final)
	e.annotateSpan()

	return &Result{
		Mode:       cfg.Mode,
		Region:     e.region,
		Iterations: iters,
		HPWL:       HPWL(nl),
		Overflow:   e.overflow,
	}, nil
}

// newEngine builds the per-run state: region and bins, seeded initial
// positions, gradient scratch and the pair structures.
func newEngine(nl *component.Netlist, cm *frequency.CollisionMap, cfg Config) *engine {
	e := &engine{cfg: cfg, nl: nl, cm: cm}
	e.setupRegion()
	e.setupBins()
	e.setupTrace()
	e.initialPositions()

	n := len(nl.Instances)
	e.gradWL = make([]float64, 2*n)
	e.gradD = make([]float64, 2*n)
	e.gradFQ = make([]float64, 2*n)
	e.gradFS = make([]float64, 2*n)
	e.gradWall = make([]float64, 2*n)
	e.gradC = make([]float64, 2*n)
	e.renormWL = make([]float64, 2*n)
	e.renormD = make([]float64, 2*n)
	e.setupChainPairs()
	e.setupDelta()
	return e
}

// setupTrace caches the gradient sub-span pointers so the iteration loop
// never takes the span's child-lookup lock. With cfg.Span nil every pointer
// stays nil and each instrumented site costs one pointer test.
func (e *engine) setupTrace() {
	sp := e.cfg.Span
	e.spWL = sp.Child("wirelength")
	e.spDen = sp.Child("density")
	e.spRaster = e.spDen.Child("rasterize")
	e.solver.SetSpan(e.spDen.Child("poisson"))
	e.spField = e.spDen.Child("field")
	e.spFreq = sp.Child("frequency")
	e.spChain = sp.Child("chain")
	e.spWall = sp.Child("boundary")
	e.spCombine = sp.Child("combine")
}

func (e *engine) setupRegion() {
	area := TotalChargeArea(e.nl) / TargetDensity
	side := math.Sqrt(area)
	e.region = geom.NewRect(0, 0, side, side)

	n := len(e.nl.Instances)
	e.chargeW = make([]float64, n)
	e.chargeH = make([]float64, n)
	for i, in := range e.nl.Instances {
		e.chargeW[i], e.chargeH[i] = chargeArea(in)
	}
}

func (e *engine) setupBins() {
	n := len(e.nl.Instances)
	bins := fft.NextPow2(int(math.Ceil(math.Sqrt(float64(n)) * 1.6)))
	if bins < 32 {
		bins = 32
	}
	if bins > 256 {
		bins = 256
	}
	hx := e.region.W() / float64(bins)
	hy := e.region.H() / float64(bins)
	e.solver = poisson.NewSolver(bins, bins, hx, hy)
	e.gamma = 2 * hx
	e.freqSmooth = 0.25
}

// initialPositions seeds qubits at their (scaled) canonical coordinates and
// strings each resonator's segments along the line between its endpoint
// qubits, with a small seeded jitter to break exact collinearity.
func (e *engine) initialPositions() {
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	dev := e.nl.Device

	// Canonical coordinate bounding box.
	lo := dev.Coords[0]
	hi := dev.Coords[0]
	for _, p := range dev.Coords {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	spanX := math.Max(hi.X-lo.X, 1e-9)
	spanY := math.Max(hi.Y-lo.Y, 1e-9)
	// Map into the central 60% of the region.
	inner := e.region.Inflate(-0.2 * e.region.W())
	mapPt := func(p geom.Point) geom.Point {
		return geom.Point{
			X: inner.Lo.X + (p.X-lo.X)/spanX*inner.W(),
			Y: inner.Lo.Y + (p.Y-lo.Y)/spanY*inner.H(),
		}
	}
	jitter := func(scale float64) float64 { return (rng.Float64() - 0.5) * scale }

	for q, instID := range e.nl.QubitInst {
		p := mapPt(dev.Coords[q])
		e.nl.Instances[instID].Pos = geom.Point{
			X: p.X + jitter(e.solver.HX),
			Y: p.Y + jitter(e.solver.HY),
		}
	}
	// Segments start in a band around their edge line: enough initial
	// entropy that the density field can ribbon each chain instead of
	// separating perfectly stacked blocks it cannot distinguish.
	segSpread := 3 * e.solver.HX
	for _, res := range e.nl.Resonators {
		pa := e.nl.Instances[e.nl.QubitInst[res.QubitA]].Pos
		pb := e.nl.Instances[e.nl.QubitInst[res.QubitB]].Pos
		k := len(res.Segments)
		for s, sid := range res.Segments {
			t := float64(s+1) / float64(k+1)
			e.nl.Instances[sid].Pos = geom.Point{
				X: pa.X + t*(pb.X-pa.X) + jitter(segSpread),
				Y: pa.Y + t*(pb.Y-pa.Y) + jitter(segSpread),
			}
		}
	}
}

// setupChainPairs precomputes the same-resonator segment pairs for the
// chain-spacing (anti-stacking) force. Eq. 10 exempts these pairs from the
// frequency force, but the blocks still reserve physically disjoint space —
// a short-range contact repulsion enforces that during global placement.
func (e *engine) setupChainPairs() {
	// Repulsion radius matches the segment's charge box (core + shared
	// padding), so a settled chain is charge-disjoint and contributes no
	// density overflow.
	e.chainR0 = (e.nl.Config.SegmentSize + e.nl.Config.ResonatorPad) * 1.05
	for _, res := range e.nl.Resonators {
		segs := res.Segments
		for i := 0; i < len(segs); i++ {
			for j := i + 1; j < len(segs); j++ {
				e.chainPairs = append(e.chainPairs, [2]int{segs[i], segs[j]})
			}
		}
	}
}

// setupDelta builds one Verlet active list per pair family. The collision
// map's pairs split by kind into the qubit and segment families: they get
// independently normalized repulsion weights, so the handful of resonant
// qubit pairs is never drowned out by the thousands of segment pairs.
func (e *engine) setupDelta() {
	e.vlQ = e.frequencyFamily(true, FreqCutoffMM)
	e.vlS = e.frequencyFamily(false, FreqCutoffSegMM)
	e.vlC = newVerlet(e.chainPairs, e.chainR0)
}

// frequencyFamily returns the Verlet state of the collision pairs between
// qubits, or between the other instances, found through a partner grid.
// Without a collision map the family is empty.
func (e *engine) frequencyFamily(qubits bool, rcut float64) *verlet {
	v := newVerlet(nil, rcut)
	if e.cm == nil {
		return v
	}
	for i, in := range e.nl.Instances {
		if (in.Kind == component.KindQubit) == qubits {
			v.ids = append(v.ids, int32(i))
			v.total += e.cm.Degree(i)
		}
	}
	v.total /= 2
	v.grid = frequency.NewPartnerGrid(e.cm, v.ids, e.region, func(int) float64 { return rcut + v.margin })
	return v
}

// annotateSpan records the run's delta-eval outcomes on the trace span,
// making the optimization visible in the exported timings.
func (e *engine) annotateSpan() {
	sp := e.cfg.Span
	if sp == nil {
		return
	}
	sp.Note(fmt.Sprintf("delta-eval: %d gradient evaluations: %d full, %d renorm-only, %d replayed",
		e.fullEvals+e.renormEvals+e.replays, e.fullEvals, e.renormEvals, e.replays))
	e.solver.Annotate()
	for _, f := range []struct {
		name string
		vl   *verlet
	}{{"qubit", e.vlQ}, {"seg", e.vlS}, {"chain", e.vlC}} {
		if f.vl.evals == 0 {
			continue
		}
		sp.Note(fmt.Sprintf("verlet %s pairs: %d total, %d active on average, %d rebuilds over %d evaluations",
			f.name, f.vl.total, f.vl.activeSum/int64(f.vl.evals), f.vl.rebuilds, f.vl.evals))
	}
}

// chainGrad evaluates the same polynomial contact repulsion over stacked
// same-resonator segment pairs (radius chainR0), keeping reserved wire-block
// space disjoint during global placement.
func (e *engine) chainGrad(xy []float64) float64 {
	chainTimer := e.spChain.Start()
	defer chainTimer.End()
	return e.pairForce(xy, e.vlC, e.gradC)
}

// pairForce evaluates one pair family into grad over its Verlet active
// list, which is exact, so the result has the bits of a scan over the whole
// family. A family with no pairs has a zero gradient and potential.
func (e *engine) pairForce(xy []float64, vl *verlet, grad []float64) float64 {
	clear(grad)
	if vl.total == 0 {
		return 0
	}
	vl.ensure(xy)
	return pairRepulsionActive(xy, vl.active, grad, vl.rcut)
}

// evalComponents fills the component gradients for the positions xy and
// refreshes the density overflow. It returns the penalty values. A bitwise
// repeat of the last full evaluation's positions is replayed instead of
// recomputed (see lastEval).
func (e *engine) evalComponents(xy []float64) (wl, dEnergy, fq, fs, cPot float64) {
	if e.replay(xy) {
		l := &e.last
		return l.wl, l.dEnergy, l.fq, l.fs, l.cPot
	}
	e.fullEvals++
	wl = e.wirelengthGrad(xy, e.gradWL)
	dEnergy = e.densityGrad(xy, e.gradD, true)
	fq, fs = e.frequencyGrad(xy)
	cPot = e.chainGrad(xy)
	e.wallGrad(xy)
	e.last = lastEval{
		xy: append(e.last.xy[:0], xy...),
		wl: wl, dEnergy: dEnergy, fq: fq, fs: fs, cPot: cPot,
		overflow: e.overflow,
	}
	return wl, dEnergy, fq, fs, cPot
}

// evalRenorm refreshes only what the penalty re-weighting reads at xy and
// returns it: the wirelength and density gradients (the Poisson field
// included, ψ and the energy skipped), with the overflow set. A replay of
// the last full evaluation returns its gradWL and gradD; otherwise the two
// components are computed into renormWL and renormD, leaving the last full
// evaluation's outputs intact for a later replay. It is exact as a
// substitute for evalComponents at the major point: the frequency, chain and
// boundary gradients are not refreshed, but they are never combined before
// the next evalComponents, because the placer invalidates the optimizer's
// gradient right after re-weighting; and the Verlet lists it does not
// advance are exact under any rebuild schedule.
func (e *engine) evalRenorm(xy []float64) (gradWL, gradD []float64) {
	if e.replay(xy) {
		return e.gradWL, e.gradD
	}
	e.renormEvals++
	e.wirelengthGrad(xy, e.renormWL)
	e.densityGrad(xy, e.renormD, false)
	return e.renormWL, e.renormD
}

// gradient is the optim.GradFunc: total objective and gradient.
func (e *engine) gradient(xy []float64, grad []float64) float64 {
	wl, dEnergy, fq, fs, cPot := e.evalComponents(xy)
	combineTimer := e.spCombine.Start()
	defer combineTimer.End()
	for i := range grad {
		grad[i] = e.gradWL[i] + e.lambda*e.gradD[i] +
			e.lambdaFQ*e.gradFQ[i] + e.lambdaFS*e.gradFS[i] +
			e.lambdaC*e.gradC[i] + e.wall*e.gradWall[i]
	}
	return wl + e.lambda*dEnergy + e.lambdaFQ*fq + e.lambdaFS*fs + e.lambdaC*cPot
}

// segChainWeight down-weights nets between two segments of the same
// resonator: the chain must stay connected, but a full-strength pull
// collapses all wire blocks onto a point that the bin-resolution density
// field cannot then separate. The reduced weight lets density pressure
// ribbon the chain out while the anchor nets (qubit↔segment) keep it routed
// between its endpoints.
const segChainWeight = 0.25

func (e *engine) netWeight(a, b int) float64 {
	ia, ib := e.nl.Instances[a], e.nl.Instances[b]
	if ia.Kind == component.KindSegment && ib.Kind == component.KindSegment &&
		ia.Resonator == ib.Resonator {
		return segChainWeight
	}
	return 1
}

// wirelengthGrad computes the smoothed wirelength Σ w·√(Δ²+γ²) per axis
// over all 2-pin nets and its gradient into grad.
func (e *engine) wirelengthGrad(xy, grad []float64) float64 {
	wlTimer := e.spWL.Start()
	defer wlTimer.End()
	g2 := e.gamma * e.gamma
	for i := range grad {
		grad[i] = 0
	}
	var total float64
	for _, net := range e.nl.Nets {
		a, b := net[0], net[1]
		w := e.netWeight(a, b)
		dx := xy[2*a] - xy[2*b]
		dy := xy[2*a+1] - xy[2*b+1]
		sx := math.Sqrt(dx*dx + g2)
		sy := math.Sqrt(dy*dy + g2)
		total += w * (sx + sy - 2*e.gamma)
		grad[2*a] += w * dx / sx
		grad[2*b] -= w * dx / sx
		grad[2*a+1] += w * dy / sy
		grad[2*b+1] -= w * dy / sy
	}
	return total
}

// densityGrad rasterizes charges, solves the Poisson problem and writes the
// density gradient −q·E per instance into grad, and sets the overflow. With
// withEnergy it returns the electrostatic energy (which costs the solver one
// more synthesis, of ψ); without, it returns 0.
func (e *engine) densityGrad(xy, grad []float64, withEnergy bool) float64 {
	denTimer := e.spDen.Start()
	defer denTimer.End()
	s := e.solver
	binArea := s.HX * s.HY
	nx, ny := s.NX, s.NY
	rasterTimer := e.spRaster.Start()

	// The clipping uses the builtin min/max, which compile inline and return
	// exactly what math.Min/math.Max return for every non-NaN operand,
	// signed zeros and infinities included (positions are finite here).
	clear(s.Density)
	for i := range e.nl.Instances {
		cx, cy := xy[2*i], xy[2*i+1]
		w, h := e.chargeW[i], e.chargeH[i]
		// Local smoothing: stretch tiny cells to at least one bin while
		// conserving charge.
		sw, sh := max(w, s.HX), max(h, s.HY)
		scale := (w * h) / (sw * sh)
		x0 := cx - sw/2
		y0 := cy - sh/2
		bx0 := int(math.Floor(x0 / s.HX))
		by0 := int(math.Floor(y0 / s.HY))
		bx1 := int(math.Ceil((x0 + sw) / s.HX))
		by1 := int(math.Ceil((y0 + sh) / s.HY))
		if by0 < 0 {
			by0 = 0
		}
		if by1 > ny {
			by1 = ny
		}
		for by := by0; by < by1; by++ {
			yLo := max(y0, float64(by)*s.HY)
			yHi := min(y0+sh, float64(by+1)*s.HY)
			if yHi <= yLo {
				continue
			}
			for bx := bx0; bx < bx1; bx++ {
				if bx < 0 || bx >= nx {
					continue
				}
				xLo := max(x0, float64(bx)*s.HX)
				xHi := min(x0+sw, float64(bx+1)*s.HX)
				if xHi <= xLo {
					continue
				}
				s.Density[by*nx+bx] += (xHi - xLo) * (yHi - yLo) * scale / binArea
			}
		}
	}

	// Overflow measures physical overlap: charge density above 1.0 means
	// instances stacked on top of each other (a cell body alone rasterizes
	// to exactly 1.0, so a spread-out layout approaches zero overflow up to
	// bin-boundary smear).
	var over, totalCharge float64
	for _, d := range s.Density {
		totalCharge += d * binArea
		if d > 1 {
			over += (d - 1) * binArea
		}
	}
	if totalCharge > 0 {
		e.overflow = over / totalCharge
	}
	rasterTimer.End()

	s.Solve()
	fieldTimer := e.spField.Start()
	for i := range e.nl.Instances {
		q := e.chargeW[i] * e.chargeH[i]
		cx, cy := xy[2*i], xy[2*i+1]
		grad[2*i] = -q * s.At(s.Ex, cx, cy)
		grad[2*i+1] = -q * s.At(s.Ey, cx, cy)
	}
	fieldTimer.End()
	if !withEnergy {
		return 0
	}
	return s.Energy()
}

// frequencyGrad evaluates the frequency repulsive potential of Eqs. 9-10,
// split into qubit and segment components.
func (e *engine) frequencyGrad(xy []float64) (fq, fs float64) {
	freqTimer := e.spFreq.Start()
	defer freqTimer.End()
	if e.cm == nil || e.cfg.Mode == ModeClassic {
		for i := range e.gradFQ {
			e.gradFQ[i] = 0
			e.gradFS[i] = 0
		}
		return 0, 0
	}
	fq = e.pairForce(xy, e.vlQ, e.gradFQ)
	fs = e.pairForce(xy, e.vlS, e.gradFS)
	return fq, fs
}

// wallGrad adds a quadratic boundary spring pulling instances back into the
// region (smooth substitute for hard clamping during optimization).
func (e *engine) wallGrad(xy []float64) {
	wallTimer := e.spWall.Start()
	defer wallTimer.End()
	r := e.region
	for i := range e.nl.Instances {
		e.gradWall[2*i] = 0
		e.gradWall[2*i+1] = 0
		hw := e.chargeW[i] / 2
		hh := e.chargeH[i] / 2
		x, y := xy[2*i], xy[2*i+1]
		if v := x - hw - r.Lo.X; v < 0 {
			e.gradWall[2*i] += 2 * v
		}
		if v := x + hw - r.Hi.X; v > 0 {
			e.gradWall[2*i] += 2 * v
		}
		if v := y - hh - r.Lo.Y; v < 0 {
			e.gradWall[2*i+1] += 2 * v
		}
		if v := y + hh - r.Hi.Y; v > 0 {
			e.gradWall[2*i+1] += 2 * v
		}
	}
}

func (e *engine) clampInto(xy []float64) {
	r := e.region
	for i := range e.nl.Instances {
		hw := e.chargeW[i] / 2
		hh := e.chargeH[i] / 2
		xy[2*i] = math.Min(math.Max(xy[2*i], r.Lo.X+hw), r.Hi.X-hw)
		xy[2*i+1] = math.Min(math.Max(xy[2*i+1], r.Lo.Y+hh), r.Hi.Y-hh)
	}
}

// l1 returns the L1 norm of v.
func l1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// HPWL returns the true half-perimeter wirelength Σ |Δx|+|Δy| over nets.
func HPWL(nl *component.Netlist) float64 {
	var total float64
	for _, net := range nl.Nets {
		a := nl.Instances[net[0]].Pos
		b := nl.Instances[net[1]].Pos
		total += math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
	}
	return total
}
