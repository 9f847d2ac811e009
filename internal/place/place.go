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
	"time"

	"qplacer/internal/component"
	"qplacer/internal/fft"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/obs"
	"qplacer/internal/optim"
	"qplacer/internal/parallel"
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

	// Workers bounds the worker pool the per-iteration gradient evaluation
	// fans out on (wirelength, density rasterization, the spectral Poisson
	// solve, frequency/chain pair repulsion, walls). 0 or 1 runs the serial
	// path. Parallel runs are bit-identical to serial ones at every worker
	// count: work is statically partitioned and every output index is
	// accumulated by exactly one worker in the serial visit order, so this
	// knob trades wall-clock for cores, never results.
	Workers int

	// Cutoffs gates each parallel stage by problem size: stages below their
	// cutoff run serially, so small problems stop paying fork-join dispatch
	// overhead that exceeds the parallel saving. nil auto-calibrates once
	// per process (parallel.AutoCutoffs); a pointer to the zero value
	// disables gating (every stage always fans out, the pre-adaptive
	// behaviour). Gating selects between bit-identical implementations, so
	// it never changes results. Ignored when Workers <= 1.
	Cutoffs *parallel.Cutoffs

	// DeltaEval enables incremental gradient evaluation across Nesterov
	// iterations: bitwise-repeated position vectors replay their cached
	// component gradients, and the pair-repulsion kernels keep Verlet active
	// lists so far-apart pairs are not re-scanned every iteration. Both
	// mechanisms carry exact-recompute guards (bit-pattern equality, a
	// displacement bound), so placements are bit-identical with or without
	// it — and at every worker count either way.
	DeltaEval bool

	// Progress, when non-nil, is called once per completed iteration with
	// the 1-based iteration count and the current density overflow. It rides
	// on values the loop computes anyway, so it adds no work; it must be
	// fast and non-blocking.
	Progress func(iter int, overflow float64)

	// Span, when non-nil, receives the run's timing breakdown: the gradient
	// components (wirelength, density with its rasterize/poisson/field
	// phases, frequency, chain, boundary), the owner-computes reductions,
	// the per-coordinate combine, and per-worker busy attribution. These are
	// wall-only aggregating sub-spans, cheap enough for the iteration loop.
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
	Runtime    time.Duration
	AvgIterMS  float64
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
	qubitPairs, segPairs           [][2]int // collision map split by kind

	// Parallel state (nil/empty when Workers <= 1). The incidence
	// structures drive owner-computes accumulation: instNets[i] (ascending
	// net indices) and the per-family CSR incidence (ascending pair
	// indices) let the worker that owns instance i fold exactly the
	// serial-order contributions into grad[2i], grad[2i+1]. The contrib
	// buffers collect per-net / per-pair scalar terms, reduced serially in
	// index order so objective values keep their serial bits too.
	pool             *parallel.Pool
	instNets         [][]int32
	incQ, incS, incC incidenceCSR
	netContrib       []float64
	pairContrib      []float64
	rasterLo         []int32 // per-instance clamped bin-row span, refreshed
	rasterHi         []int32 // each densityGrad so workers skip cheaply

	// Adaptive granularity: per-stage gated views of pool (nil = run that
	// stage serially because its problem size is below the cutoff). The
	// pair kernels gate dynamically per call instead, since delta eval
	// shrinks their live problem size between rebuilds.
	cut                           parallel.Cutoffs
	poolWL, poolRaster, poolPoint *parallel.Pool
	poolSolve                     *parallel.Pool

	// Delta evaluation (nil/disabled unless cfg.DeltaEval).
	memo          *evalMemo
	vlQ, vlS, vlC *verlet

	// Aggregating trace sub-spans of cfg.Span (all nil when untraced).
	spWL, spDen, spRaster, spField *obs.Span
	spFreq, spChain, spWall        *obs.Span
	spCombine, spReduce            *obs.Span
}

// incidenceCSR is a pair family inverted into compressed-sparse-row form:
// instance i's incident half-edges occupy entries start[i]..start[i+1], in
// ascending pair order (the serial visit order). Each entry stores the
// opposite instance and, when i is the pair's first endpoint, the pair index
// to write the scalar contribution to (-1 otherwise). The flat layout keeps
// the hot loop streaming instead of chasing [][2]int at random.
type incidenceCSR struct {
	start      []int32
	other      []int32
	contribIdx []int32
}

// buildIncidence inverts an edge list into CSR incidence.
func buildIncidence(n int, edges [][2]int) incidenceCSR {
	deg := make([]int32, n+1)
	for _, ed := range edges {
		deg[ed[0]+1]++
		deg[ed[1]+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	inc := incidenceCSR{
		start:      deg,
		other:      make([]int32, 2*len(edges)),
		contribIdx: make([]int32, 2*len(edges)),
	}
	fill := append([]int32(nil), deg[:n]...)
	for k, ed := range edges {
		a, b := ed[0], ed[1]
		inc.other[fill[a]] = int32(b)
		inc.contribIdx[fill[a]] = int32(k)
		fill[a]++
		inc.other[fill[b]] = int32(a)
		inc.contribIdx[fill[b]] = -1
		fill[b]++
	}
	return inc
}

// Place runs global placement on the netlist, mutating instance positions.
// The collision map may be nil for ModeClassic.
func Place(nl *component.Netlist, cm *frequency.CollisionMap, cfg Config) (*Result, error) {
	return PlaceCtx(context.Background(), nl, cm, cfg)
}

// PlaceCtx is Place with cancellation: the Nesterov loop checks ctx once per
// iteration and returns ctx.Err() as soon as it fires, leaving the netlist at
// the positions of the last completed iteration.
func PlaceCtx(ctx context.Context, nl *component.Netlist, cm *frequency.CollisionMap, cfg Config) (*Result, error) {
	start := time.Now()
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
	defer e.close()

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
	renorm := func() {
		wlNorm := l1(e.gradWL) + 1e-12
		// Typical per-coordinate wirelength gradient: the force scale one
		// instance actually feels.
		gBar := wlNorm / float64(len(e.gradWL))
		if dNorm := l1(e.gradD); dNorm > 0 {
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
	renorm()

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
		e.evalComponents(opt.X())
		renorm()
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
	cfg.Span.SetWorkers(e.pool.WorkerBusy())
	e.annotateSpan()

	elapsed := time.Since(start)
	return &Result{
		Mode:       cfg.Mode,
		Region:     e.region,
		Iterations: iters,
		HPWL:       HPWL(nl),
		Overflow:   e.overflow,
		Runtime:    elapsed,
		AvgIterMS:  float64(elapsed) / float64(time.Millisecond) / float64(iters),
	}, nil
}

// newEngine builds the per-run state: region and bins, seeded initial
// positions, gradient scratch, the pair structures, and (when cfg.Workers
// asks for it) the worker pool plus owner-computes incidence lists. Callers
// must release the pool with close.
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
	e.setupChainPairs()
	e.splitCollisionPairs()
	e.setupParallel()
	e.setupDelta()
	return e
}

// close releases the engine's worker pool (a no-op for serial runs).
func (e *engine) close() { e.pool.Close() }

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
	e.spReduce = sp.Child("reduce")
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

// setupParallel builds the worker pool and the owner-computes incidence
// structures when the config asks for more than one worker. The pool is
// closed by PlaceCtx when the run ends.
func (e *engine) setupParallel() {
	e.pool = parallel.New(e.cfg.Workers)
	if e.pool == nil {
		return
	}
	e.cut = parallel.Resolve(e.cfg.Cutoffs, e.pool)
	n := len(e.nl.Instances)
	cells := e.solver.NX * e.solver.NY
	e.poolWL = parallel.Gate(e.pool, n, e.cut.WirelengthItems)
	e.poolRaster = parallel.Gate(e.pool, cells, e.cut.RasterCells)
	e.poolPoint = parallel.Gate(e.pool, n, e.cut.PointItems)
	e.poolSolve = parallel.Gate(e.pool, cells, e.cut.SolveCells)
	e.solver.Parallelize(e.poolSolve)
	e.instNets = incidence(n, e.nl.Nets)
	e.incQ = buildIncidence(n, e.qubitPairs)
	e.incS = buildIncidence(n, e.segPairs)
	e.incC = buildIncidence(n, e.chainPairs)
	e.netContrib = make([]float64, len(e.nl.Nets))
	maxPairs := len(e.qubitPairs)
	if len(e.segPairs) > maxPairs {
		maxPairs = len(e.segPairs)
	}
	if len(e.chainPairs) > maxPairs {
		maxPairs = len(e.chainPairs)
	}
	e.pairContrib = make([]float64, maxPairs)
	e.rasterLo = make([]int32, n)
	e.rasterHi = make([]int32, n)
}

// setupDelta builds the delta-evaluation state: the two-slot evaluation memo
// and one Verlet active list per pair family. The filtered owner-computes
// incidence buffers are only allocated when a pool exists to use them.
func (e *engine) setupDelta() {
	if !e.cfg.DeltaEval {
		return
	}
	n := len(e.nl.Instances)
	e.memo = &evalMemo{}
	withInc := e.pool != nil
	e.vlQ = newVerlet(n, e.qubitPairs, FreqCutoffMM, withInc)
	e.vlS = newVerlet(n, e.segPairs, FreqCutoffSegMM, withInc)
	e.vlC = newVerlet(n, e.chainPairs, e.chainR0, withInc)
}

// annotateSpan records the run's delta-eval and granularity outcomes on the
// trace span, making the optimization visible in the exported timings.
func (e *engine) annotateSpan() {
	sp := e.cfg.Span
	if sp == nil {
		return
	}
	if e.memo != nil {
		total := e.memo.hits + e.memo.misses
		sp.Note(fmt.Sprintf("delta-eval: %d/%d gradient evaluations replayed from memo", e.memo.hits, total))
	}
	for _, f := range []struct {
		name string
		vl   *verlet
	}{{"qubit", e.vlQ}, {"seg", e.vlS}, {"chain", e.vlC}} {
		if f.vl == nil || f.vl.evals == 0 {
			continue
		}
		sp.Note(fmt.Sprintf("verlet %s pairs: %d total, %d active on average, %d rebuilds over %d evaluations",
			f.name, len(f.vl.pairs), f.vl.activeSum/int64(f.vl.evals), f.vl.rebuilds, f.vl.evals))
	}
	if e.pool != nil {
		mode := func(p *parallel.Pool) string {
			if p == nil {
				return "serial"
			}
			return "parallel"
		}
		sp.Note(fmt.Sprintf("adaptive granularity: wirelength=%s raster=%s points=%s solve=%s",
			mode(e.poolWL), mode(e.poolRaster), mode(e.poolPoint), mode(e.poolSolve)))
	}
}

// incidence inverts an edge list into per-instance lists of incident edge
// indices, ascending — the order the serial scatter loops visit them in, so
// owner-computes accumulation reproduces the serial bits.
func incidence(n int, edges [][2]int) [][]int32 {
	deg := make([]int, n)
	for _, ed := range edges {
		deg[ed[0]]++
		deg[ed[1]]++
	}
	backing := make([]int32, 2*len(edges))
	out := make([][]int32, n)
	pos := 0
	for i := 0; i < n; i++ {
		out[i] = backing[pos : pos : pos+deg[i]]
		pos += deg[i]
	}
	for k, ed := range edges {
		out[ed[0]] = append(out[ed[0]], int32(k))
		out[ed[1]] = append(out[ed[1]], int32(k))
	}
	return out
}

// chainGrad evaluates the same polynomial contact repulsion over stacked
// same-resonator segment pairs (radius chainR0), keeping reserved wire-block
// space disjoint during global placement.
func (e *engine) chainGrad(xy []float64) float64 {
	chainTimer := e.spChain.Start()
	defer chainTimer.End()
	return e.pairForce(xy, e.chainPairs, e.incC, e.vlC, e.gradC, e.chainR0)
}

// pairForce evaluates one pair family into grad, selecting the evaluation
// strategy: the Verlet active list when delta eval is on, then the
// owner-computes fan-out when the live pair count clears the adaptive
// cutoff, and the serial scatter otherwise. Every combination produces the
// same bits (the active list is exact, and the owner-computes kernel
// reproduces the serial accumulation order).
func (e *engine) pairForce(xy []float64, pairs [][2]int, inc incidenceCSR, vl *verlet, grad []float64, rcut float64) float64 {
	items := len(pairs)
	var active []int32
	if vl != nil {
		vl.ensure(xy)
		active = vl.active
		items = len(active)
		inc = vl.inc
	}
	if p := parallel.Gate(e.pool, items, e.cut.PairItems); p != nil {
		return e.pairRepulsionOwner(p, xy, len(pairs), inc, active, grad, rcut)
	}
	for i := range grad {
		grad[i] = 0
	}
	if vl != nil {
		return pairRepulsionActive(xy, pairs, active, grad, rcut)
	}
	return pairRepulsion(xy, pairs, grad, rcut)
}

// evalComponents fills the component gradients for the positions xy and
// refreshes the density overflow. It returns the penalty values. With delta
// evaluation on, a bitwise repeat of a recently evaluated position vector is
// replayed from the memo instead of recomputed (the outputs depend only on
// xy — penalty weights enter later, in the combine — so the replay is exact).
func (e *engine) evalComponents(xy []float64) (wl, dEnergy, fq, fs, cPot float64) {
	if e.memo != nil {
		if wl, dEnergy, fq, fs, cPot, ok := e.memo.lookup(e, xy); ok {
			return wl, dEnergy, fq, fs, cPot
		}
	}
	wl = e.wirelengthGrad(xy)
	dEnergy = e.densityGrad(xy)
	fq, fs = e.frequencyGrad(xy)
	cPot = e.chainGrad(xy)
	e.wallGrad(xy)
	if e.memo != nil {
		e.memo.store(e, xy, wl, dEnergy, fq, fs, cPot)
	}
	return wl, dEnergy, fq, fs, cPot
}

// gradient is the optim.GradFunc: total objective and gradient. The
// per-coordinate combine is independent across indices, so it fans out.
func (e *engine) gradient(xy []float64, grad []float64) float64 {
	wl, dEnergy, fq, fs, cPot := e.evalComponents(xy)
	combineTimer := e.spCombine.Start()
	defer combineTimer.End()
	e.poolPoint.For(len(grad), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			grad[i] = e.gradWL[i] + e.lambda*e.gradD[i] +
				e.lambdaFQ*e.gradFQ[i] + e.lambdaFS*e.gradFS[i] +
				e.lambdaC*e.gradC[i] + e.wall*e.gradWall[i]
		}
	})
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
// over all 2-pin nets and its gradient.
func (e *engine) wirelengthGrad(xy []float64) float64 {
	wlTimer := e.spWL.Start()
	defer wlTimer.End()
	g2 := e.gamma * e.gamma
	if e.poolWL != nil {
		// Owner-computes fan-out: each worker folds its instances' incident
		// nets (ascending net index, the serial visit order) into their two
		// coordinates; per-net length terms land in netContrib (written by
		// the first endpoint's owner) and reduce in serial net order.
		e.poolWL.For(len(e.nl.Instances), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				var gx, gy float64
				for _, k := range e.instNets[i] {
					net := e.nl.Nets[k]
					a, b := net[0], net[1]
					w := e.netWeight(a, b)
					dx := xy[2*a] - xy[2*b]
					dy := xy[2*a+1] - xy[2*b+1]
					sx := math.Sqrt(dx*dx + g2)
					sy := math.Sqrt(dy*dy + g2)
					if i == a {
						gx += w * dx / sx
						gy += w * dy / sy
						e.netContrib[k] = w * (sx + sy - 2*e.gamma)
					} else {
						gx -= w * dx / sx
						gy -= w * dy / sy
					}
				}
				e.gradWL[2*i] = gx
				e.gradWL[2*i+1] = gy
			}
		})
		reduceTimer := e.spReduce.Start()
		var total float64
		for _, c := range e.netContrib {
			total += c
		}
		reduceTimer.End()
		return total
	}
	for i := range e.gradWL {
		e.gradWL[i] = 0
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
		e.gradWL[2*a] += w * dx / sx
		e.gradWL[2*b] -= w * dx / sx
		e.gradWL[2*a+1] += w * dy / sy
		e.gradWL[2*b+1] -= w * dy / sy
	}
	return total
}

// densityGrad rasterizes charges, solves the Poisson problem and sets the
// density gradient −q·E per instance. Returns the electrostatic energy.
func (e *engine) densityGrad(xy []float64) float64 {
	denTimer := e.spDen.Start()
	defer denTimer.End()
	s := e.solver
	binArea := s.HX * s.HY
	nx, ny := s.NX, s.NY
	rasterTimer := e.spRaster.Start()

	// Rasterization is partitioned by bin row: each worker zeroes and fills
	// the rows it owns, visiting instances in ascending index order (the
	// serial accumulation order per bin), with the instance's row span
	// clipped to the owned band. The serial path is the lo=0, hi=ny case.
	// When parallel, a per-instance prefilter pins each instance's clamped
	// row span first, so the per-band sweeps skip non-overlapping instances
	// with two int compares instead of redoing the bbox float math W times.
	if e.poolRaster != nil {
		e.poolRaster.For(len(e.nl.Instances), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				cy := xy[2*i+1]
				sh := math.Max(e.chargeH[i], s.HY)
				y0 := cy - sh/2
				by0 := int(math.Floor(y0 / s.HY))
				by1 := int(math.Ceil((y0 + sh) / s.HY))
				if by0 < 0 {
					by0 = 0
				}
				if by1 > ny {
					by1 = ny
				}
				e.rasterLo[i] = int32(by0)
				e.rasterHi[i] = int32(by1)
			}
		})
	}
	e.poolRaster.For(ny, func(_, rowLo, rowHi int) {
		for i := rowLo * nx; i < rowHi*nx; i++ {
			s.Density[i] = 0
		}
		for i := range e.nl.Instances {
			if e.poolRaster != nil && (int(e.rasterLo[i]) >= rowHi || int(e.rasterHi[i]) <= rowLo) {
				continue
			}
			cx, cy := xy[2*i], xy[2*i+1]
			w, h := e.chargeW[i], e.chargeH[i]
			// Local smoothing: stretch tiny cells to at least one bin while
			// conserving charge.
			sw, sh := math.Max(w, s.HX), math.Max(h, s.HY)
			scale := (w * h) / (sw * sh)
			x0 := cx - sw/2
			y0 := cy - sh/2
			bx0 := int(math.Floor(x0 / s.HX))
			by0 := int(math.Floor(y0 / s.HY))
			bx1 := int(math.Ceil((x0 + sw) / s.HX))
			by1 := int(math.Ceil((y0 + sh) / s.HY))
			if by0 < rowLo {
				by0 = rowLo
			}
			if by1 > rowHi {
				by1 = rowHi
			}
			for by := by0; by < by1; by++ {
				yLo := math.Max(y0, float64(by)*s.HY)
				yHi := math.Min(y0+sh, float64(by+1)*s.HY)
				if yHi <= yLo {
					continue
				}
				for bx := bx0; bx < bx1; bx++ {
					if bx < 0 || bx >= nx {
						continue
					}
					xLo := math.Max(x0, float64(bx)*s.HX)
					xHi := math.Min(x0+sw, float64(bx+1)*s.HX)
					if xHi <= xLo {
						continue
					}
					s.Density[by*nx+bx] += (xHi - xLo) * (yHi - yLo) * scale / binArea
				}
			}
		}
	})

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
	// Field sampling writes each instance's own two coordinates from the
	// read-only solved fields — embarrassingly parallel.
	fieldTimer := e.spField.Start()
	e.poolPoint.For(len(e.nl.Instances), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			q := e.chargeW[i] * e.chargeH[i]
			cx, cy := xy[2*i], xy[2*i+1]
			e.gradD[2*i] = -q * s.At(s.Ex, cx, cy)
			e.gradD[2*i+1] = -q * s.At(s.Ey, cx, cy)
		}
	})
	fieldTimer.End()
	return s.Energy()
}

// splitCollisionPairs partitions the collision map by kind: qubit-qubit
// pairs and segment-segment pairs get independently normalized repulsion
// weights, so the handful of resonant qubit pairs is never drowned out by
// the thousands of segment pairs.
func (e *engine) splitCollisionPairs() {
	if e.cm == nil {
		return
	}
	for _, p := range e.cm.Pairs {
		if e.nl.Instances[p[0]].Kind == component.KindQubit {
			e.qubitPairs = append(e.qubitPairs, p)
		} else {
			e.segPairs = append(e.segPairs, p)
		}
	}
}

// pairRepulsion accumulates a finite-range repulsive potential
//
//	U(d) = (R² − d²)² / R³   for d < R,   0 otherwise,
//
// and its gradient over the given pairs. This realizes the frequency
// repulsive force of Eq. 9 — active only inside the interaction radius and
// pushing monotonically harder as near-resonant instances approach — with
// two numerical properties the literal 1/d² profile lacks: the force is a
// polynomial in the raw coordinate differences (no d→0 direction
// singularity) and its stiffness is bounded by ~4/R everywhere, so stacked
// pairs cannot collapse the optimizer's stable step size and freeze the
// layout (see DESIGN.md, "Frequency force").
func pairRepulsion(xy []float64, pairs [][2]int, grad []float64, rcut float64) float64 {
	var total float64
	r2 := rcut * rcut
	r3 := r2 * rcut
	for _, p := range pairs {
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

// pairRepulsionOwner is pairRepulsion fanned out over the pool with
// owner-computes accumulation: each worker owns a contiguous instance range
// and folds that range's incident pairs (ascending pair index — the serial
// visit order) into its own gradient entries, so no two workers touch one
// coordinate and the sums keep their serial bits. The loop is role-free:
// with Δ measured from the owner (dx = x_i − x_j), IEEE negation symmetry
// (fl(−t) = −fl(t) for subtraction and multiplication, g + (−u) ≡ g − u)
// makes "gx −= scale·dx" reproduce the serial bits for both pair endpoints.
// Per-pair potential terms land in e.pairContrib (written by the owner of
// the pair's first instance, contribIdx >= 0) and reduce to the total in
// serial pair order; out-of-range pairs record an exact 0, which leaves the
// running float sum untouched. With a Verlet active list, inc is the
// filtered incidence and active lists the live pair indices to reduce over
// (skipped pairs would contribute exactly 0); active == nil reduces over
// every pair.
func (e *engine) pairRepulsionOwner(p *parallel.Pool, xy []float64, numPairs int, inc incidenceCSR, active []int32, grad []float64, rcut float64) float64 {
	r2 := rcut * rcut
	r3 := r2 * rcut
	contrib := e.pairContrib[:numPairs]
	p.For(len(grad)/2, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var gx, gy float64
			xi, yi := xy[2*i], xy[2*i+1]
			for m := inc.start[i]; m < inc.start[i+1]; m++ {
				j := int(inc.other[m])
				dx := xi - xy[2*j]
				dy := yi - xy[2*j+1]
				d2 := dx*dx + dy*dy
				if d2 >= r2 {
					if k := inc.contribIdx[m]; k >= 0 {
						contrib[k] = 0
					}
					continue
				}
				gap := r2 - d2
				scale := 4 * gap / r3
				gx -= scale * dx
				gy -= scale * dy
				if k := inc.contribIdx[m]; k >= 0 {
					contrib[k] = gap * gap / r3
				}
			}
			grad[2*i] = gx
			grad[2*i+1] = gy
		}
	})
	reduceTimer := e.spReduce.Start()
	var total float64
	if active != nil {
		for _, k := range active {
			total += contrib[k]
		}
	} else {
		for _, c := range contrib {
			total += c
		}
	}
	reduceTimer.End()
	return total
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
	fq = e.pairForce(xy, e.qubitPairs, e.incQ, e.vlQ, e.gradFQ, FreqCutoffMM)
	fs = e.pairForce(xy, e.segPairs, e.incS, e.vlS, e.gradFS, FreqCutoffSegMM)
	return fq, fs
}

// wallGrad adds a quadratic boundary spring pulling instances back into the
// region (smooth substitute for hard clamping during optimization). Each
// instance owns its two coordinates, so the fan-out preserves bits.
func (e *engine) wallGrad(xy []float64) {
	wallTimer := e.spWall.Start()
	defer wallTimer.End()
	r := e.region
	e.poolPoint.For(len(e.nl.Instances), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
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
	})
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
