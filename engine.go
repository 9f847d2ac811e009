package qplacer

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"qplacer/internal/circuit"
	"qplacer/internal/component"
	"qplacer/internal/fidelity"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/mapper"
	"qplacer/internal/metrics"
	"qplacer/internal/obs"
	"qplacer/internal/place"
	"qplacer/internal/render"
	"qplacer/internal/topology"
)

// sampleSeed fixes the subset-mapping RNG so identical mappings are reused
// across placement schemes, as the paper's methodology requires (§VI-A).
const sampleSeed = 12345

// Engine is the reusable, context-aware entry point of the pipeline. It
// caches the immutable stages — generated devices, frequency assignments,
// built netlist templates, collision maps, benchmark circuits, and sampled
// mappings — keyed by normalized options, so repeated work on the same
// topology skips straight to placement, and repeated identical runs return
// the cached plan outright. An Engine is safe for concurrent use.
//
// Plans returned by a warm cache hit are shared: treat PlanResult (and its
// Netlist) as read-only, as every pipeline consumer already does.
type Engine struct {
	settings settings

	// Cache traffic counters, readable without the engine lock via Stats.
	planHits, planMisses   atomic.Uint64
	stageHits, stageMisses atomic.Uint64

	mu       sync.Mutex
	devices  map[string]*topology.Device
	stages   map[stageKey]*stageEntry
	circuits map[string]*circuit.Circuit
	mappings map[mappingKey][]*mapper.Mapping
	plans    map[Options]*PlanResult
}

// EngineStats is a point-in-time snapshot of the engine's cache traffic.
type EngineStats struct {
	PlanCacheHits    uint64 `json:"plan_cache_hits"`
	PlanCacheMisses  uint64 `json:"plan_cache_misses"`
	StageCacheHits   uint64 `json:"stage_cache_hits"`
	StageCacheMisses uint64 `json:"stage_cache_misses"`
}

// Stats reports the engine's cache hit/miss counters. Safe for concurrent
// use; services export it (qplacerd polls its one shared engine into
// Prometheus counters).
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		PlanCacheHits:    e.planHits.Load(),
		PlanCacheMisses:  e.planMisses.Load(),
		StageCacheHits:   e.stageHits.Load(),
		StageCacheMisses: e.stageMisses.Load(),
	}
}

// stageKey identifies the placement-independent pipeline prefix: the device,
// its frequency assignment, the padded netlist, and the collision map.
type stageKey struct {
	Topology string
	DeltaC   float64
	LB       float64
}

type stageEntry struct {
	device     *topology.Device
	assignment *frequency.Assignment
	netlist    *component.Netlist // template; cloned per placement run
	collision  *frequency.CollisionMap
}

type mappingKey struct {
	Bench    string
	Topology string
	N        int
}

// New constructs an Engine. Options set the engine-wide defaults that every
// Plan/Evaluate call starts from; per-call options override them.
func New(opts ...Option) *Engine {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	return &Engine{
		settings: s,
		devices:  map[string]*topology.Device{},
		stages:   map[stageKey]*stageEntry{},
		circuits: map[string]*circuit.Circuit{},
		mappings: map[mappingKey][]*mapper.Mapping{},
		plans:    map[Options]*PlanResult{},
	}
}

// PlanResult is a placed-and-legalized layout plus its statistics.
type PlanResult struct {
	Options   Options
	Device    *topology.Device
	Netlist   *component.Netlist
	Collision *frequency.CollisionMap
	Region    geom.Rect
	Metrics   *metrics.Report

	PlaceIterations int
	// PlaceOverflow is the placement backend's final density-overflow
	// fraction (see PlaceOutcome.Overflow); 0 for backends that do not
	// track one and for the Human baseline.
	PlaceOverflow float64
	NumCells      int
	Integrated    bool

	// DetailMoved and DetailHPWLBefore/After report the detailed-placement
	// stage (see DetailOutcome); all zero when the run used the default
	// "none" backend, which the engine skips outright.
	DetailMoved      int
	DetailHPWLBefore float64
	DetailHPWLAfter  float64

	// Validation is the independent verifier's report, set when the plan ran
	// under WithValidation (or by the caller via Validate); nil otherwise.
	// The plan's JSON omits it: ResultDocument.Validation carries it.
	Validation *ValidationReport

	// Timings is the per-stage timing breakdown recorded while the plan was
	// computed; its "place" node is the plan's global-placement time.
	// Warm cache hits share the cold run's breakdown (a hit does no stage
	// work of its own to time).
	Timings *SpanTiming
}

// WriteSVG renders the plan's layout as SVG.
func (p *PlanResult) WriteSVG(w io.Writer) error {
	return render.SVG(w, p.Netlist)
}

// WriteGDS renders the plan's layout as GDS-like text.
func (p *PlanResult) WriteGDS(w io.Writer) error {
	return render.GDSText(w, p.Netlist, p.Device.Name)
}

// Plan runs the placement pipeline for the engine's options merged with the
// per-call overrides. Identical normalized options return the cached plan;
// cancellation of ctx surfaces as ErrCancelled within one placement
// iteration. Progress streams to the observer from WithObserver (per-call
// or engine-wide), if any.
func (e *Engine) Plan(ctx context.Context, opts ...Option) (*PlanResult, error) {
	s := e.settings
	for _, o := range opts {
		o(&s)
	}
	return e.planWith(ctx, s.opts, s.observer, s.validation)
}

// planWith runs one plan.
func (e *Engine) planWith(ctx context.Context, opts Options, observer Observer, vmode ValidationMode) (*PlanResult, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if observer == nil {
		observer = nopObserver{}
	}
	norm, err := opts.Normalized()
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if cached, ok := e.plans[norm]; ok {
		e.mu.Unlock()
		e.planHits.Add(1)
		return e.validated(cached, norm, vmode)
	}
	e.mu.Unlock()
	e.planMisses.Add(1)

	// The tracer is built only after the plan-cache lookup misses, so the
	// warm path stays allocation-free; StartAt backdates the root span to
	// cover normalization and the lookup itself.
	root := obs.NewSpan("plan")
	rootTimer := root.StartAt(start)

	st, err := e.stage(norm, root)
	if err != nil {
		return nil, err
	}
	cloneTimer := root.Child("netlist.clone").Start()
	nl := st.netlist.Clone()
	cloneTimer.End()

	out := &PlanResult{
		Options:   norm,
		Device:    st.device,
		Netlist:   nl,
		Collision: st.collision,
		NumCells:  nl.NumCells(),
	}

	switch norm.Scheme {
	case SchemeHuman:
		// The manual baseline is a deterministic construction, not an
		// optimization — it bypasses the placer/legalizer backends.
		placeTimer := root.ChildCPU("place").Start()
		out.Region = place.PlaceHuman(nl).Region
		placeTimer.End()
		out.PlaceIterations = 1
		out.Integrated = true
	case SchemeQplacer, SchemeClassic:
		state := &StageState{
			Options:   norm,
			Device:    st.device,
			Netlist:   nl,
			Collision: st.collision,
		}
		placer, err := PlacerByName(norm.Placer)
		if err != nil {
			return nil, err
		}
		// Backends receive their stage span through the context (the public
		// StageState cannot expose internal/obs types); built-in backends
		// attach sub-spans under it, and external ones are still timed at
		// stage granularity by the wrapping timer.
		placeSpan := root.ChildCPU("place")
		placeTimer := placeSpan.Start()
		pres, err := placer.Place(obs.ContextWithSpan(ctx, placeSpan), state, observer)
		placeTimer.End()
		if err != nil {
			return nil, wrapCancel(err)
		}
		out.Region = pres.Region
		out.PlaceIterations = pres.Iterations
		out.PlaceOverflow = pres.Overflow
		if !norm.SkipLegalize {
			legalizer, err := LegalizerByName(norm.Legalizer)
			if err != nil {
				return nil, err
			}
			legalSpan := root.ChildCPU("legalize")
			legalTimer := legalSpan.Start()
			lres, err := legalizer.Legalize(obs.ContextWithSpan(ctx, legalSpan), state, pres.Region, observer)
			legalTimer.End()
			if err != nil {
				return nil, wrapCancel(err)
			}
			out.Integrated = lres.IntegratedAll

			// Detailed placement refines the legalized layout. The default
			// "none" backend is the identity, fast-pathed here so the
			// pre-existing pipeline — results, span tree, progress stream —
			// is reproduced without even a stage dispatch.
			if norm.DetailedPlacer != DefaultDetailedPlacerName {
				detailed, err := DetailedPlacerByName(norm.DetailedPlacer)
				if err != nil {
					return nil, err
				}
				detailSpan := root.ChildCPU("detail")
				detailTimer := detailSpan.Start()
				dres, err := detailed.Refine(obs.ContextWithSpan(ctx, detailSpan), state, pres.Region, observer)
				detailTimer.End()
				if err != nil {
					return nil, wrapCancel(err)
				}
				out.DetailMoved = dres.Moved
				out.DetailHPWLBefore = dres.HPWLBefore
				out.DetailHPWLAfter = dres.HPWLAfter
			}
		}
	}

	metricsTimer := root.ChildCPU("metrics").Start()
	out.Metrics = metrics.Measure(nl, norm.DeltaC)
	metricsTimer.End()

	if vmode != ValidationOff {
		validateTimer := root.ChildCPU("validate").Start()
		rep, err := Validate(out)
		validateTimer.End()
		if err != nil {
			return nil, err
		}
		out.Validation = rep
		if vmode == ValidationStrict && !rep.Valid {
			// Invalid plans never enter the cache: a later non-strict call
			// may still want the layout (annotated), and a strict retry must
			// re-verify rather than trust a poisoned entry.
			return nil, validationError(rep)
		}
	}

	rootTimer.End()
	out.Timings = spanTiming(root.Snapshot())

	e.mu.Lock()
	if prior, ok := e.plans[norm]; ok {
		e.mu.Unlock()
		// A concurrent identical run won the insert race; results agree, but
		// the winner may have run under a different validation mode, so the
		// caller's mode is applied to the shared entry like any warm hit.
		return e.validated(prior, norm, vmode)
	}
	e.plans[norm] = out
	e.mu.Unlock()
	return out, nil
}

// validated applies the validation mode to a plan served from the warm
// cache. Cached plans are shared and read-only, so a report computed for an
// unannotated entry goes onto a shallow copy, which then replaces the cache
// entry — later hits reuse the annotated copy instead of re-verifying.
func (e *Engine) validated(cached *PlanResult, norm Options, vmode ValidationMode) (*PlanResult, error) {
	if vmode == ValidationOff {
		return cached, nil
	}
	if cached.Validation == nil {
		rep, err := Validate(cached)
		if err != nil {
			return nil, err
		}
		annotated := *cached
		annotated.Validation = rep
		e.mu.Lock()
		if e.plans[norm] == cached {
			e.plans[norm] = &annotated
		}
		e.mu.Unlock()
		cached = &annotated
	}
	if vmode == ValidationStrict && !cached.Validation.Valid {
		return nil, validationError(cached.Validation)
	}
	return cached, nil
}

// stage returns the cached placement-independent prefix for the options,
// building and memoizing it on first use. The build runs outside the engine
// lock so cold-cache work on different keys proceeds in parallel; a lost
// race discards the duplicate, which is identical by construction.
func (e *Engine) stage(norm Options, root *obs.Span) (*stageEntry, error) {
	stageSpan := root.ChildCPU("stage")
	stageTimer := stageSpan.Start()
	defer stageTimer.End()
	key := stageKey{Topology: norm.Topology, DeltaC: norm.DeltaC, LB: norm.LB}
	e.mu.Lock()
	st, ok := e.stages[key]
	dev, haveDev := e.devices[norm.Topology]
	e.mu.Unlock()
	if ok {
		e.stageHits.Add(1)
		return st, nil
	}
	e.stageMisses.Add(1)
	buildTimer := stageSpan.Child("build").Start()
	defer buildTimer.End()
	if !haveDev {
		var err error
		dev, err = topology.ByName(norm.Topology)
		if err != nil {
			return nil, err
		}
	}
	assign := frequency.Assign(dev, norm.DeltaC)
	ccfg := component.DefaultConfig()
	ccfg.SegmentSize = norm.LB
	nl, err := component.Build(dev, assign.QubitFreq, assign.ResFreq, ccfg)
	if err != nil {
		return nil, err
	}
	st = &stageEntry{
		device:     dev,
		assignment: assign,
		netlist:    nl,
		collision:  frequency.BuildCollisionMap(nl, norm.DeltaC),
	}
	e.mu.Lock()
	if prior, ok := e.stages[key]; ok {
		st = prior
	} else {
		e.stages[key] = st
		if _, ok := e.devices[norm.Topology]; !ok {
			e.devices[norm.Topology] = dev
		}
	}
	e.mu.Unlock()
	return st, nil
}

// EvalResult is the fidelity evaluation of one benchmark on one layout.
type EvalResult struct {
	Benchmark    string  `json:"benchmark"`
	NumMappings  int     `json:"num_mappings"` // mappings actually evaluated
	MeanFidelity float64 `json:"mean_fidelity"`
	MinFidelity  float64 `json:"min_fidelity"`
	MaxFidelity  float64 `json:"max_fidelity"`
}

// Evaluate estimates program fidelity for a registered benchmark over
// nMappings seeded subset mappings (the paper uses 50; nMappings <= 0
// selects that default). The same seed — hence identical mappings — is used
// regardless of the placement scheme, as the methodology requires. Mappings
// are cached per (benchmark, topology, count), so evaluating several plans
// of one topology samples only once.
func (e *Engine) Evaluate(ctx context.Context, plan *PlanResult, benchName string, nMappings int) (*EvalResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if nMappings <= 0 {
		nMappings = DefaultMappings
	}
	circ, err := e.circuitFor(benchName)
	if err != nil {
		return nil, err
	}
	maps, err := e.mappingsFor(circ, plan.Device, nMappings)
	if err != nil {
		return nil, err
	}
	if len(maps) == 0 {
		return nil, fmt.Errorf("%w: benchmark %q on %s", ErrNoMappings, benchName, plan.Device.Name)
	}
	params := fidelity.DefaultParams()
	params.DeltaCGHz = plan.Options.DeltaC

	out := &EvalResult{
		Benchmark:   benchName,
		NumMappings: len(maps),
		MinFidelity: math.Inf(1),
		MaxFidelity: math.Inf(-1),
	}
	for _, m := range maps {
		if err := ctx.Err(); err != nil {
			return nil, wrapCancel(err)
		}
		f := fidelity.Estimate(plan.Netlist, m, params).F
		out.MeanFidelity += f
		out.MinFidelity = math.Min(out.MinFidelity, f)
		out.MaxFidelity = math.Max(out.MaxFidelity, f)
	}
	out.MeanFidelity /= float64(len(maps))
	return out, nil
}

// circuitFor builds (or returns the cached) benchmark circuit. Like stage,
// the build runs outside the lock so EvaluateAll workers warming different
// benchmarks do not serialize.
func (e *Engine) circuitFor(benchName string) (*circuit.Circuit, error) {
	e.mu.Lock()
	cached, ok := e.circuits[benchName]
	e.mu.Unlock()
	if ok {
		return cached, nil
	}
	bench, err := circuit.ByName(benchName)
	if err != nil {
		return nil, err
	}
	c := bench.Build()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if prior, ok := e.circuits[benchName]; ok {
		c = prior
	} else {
		e.circuits[benchName] = c
	}
	e.mu.Unlock()
	return c, nil
}

// mappingsFor samples (or returns the cached) mapping set. Sampling runs
// outside the engine lock so concurrent evaluations of different benchmarks
// do not serialize; a lost race discards the duplicate, which is identical
// by seeded determinism.
func (e *Engine) mappingsFor(circ *circuit.Circuit, dev *topology.Device, n int) ([]*mapper.Mapping, error) {
	key := mappingKey{Bench: circ.Name, Topology: dev.Name, N: n}
	e.mu.Lock()
	cached, ok := e.mappings[key]
	e.mu.Unlock()
	if ok {
		return cached, nil
	}
	maps, err := mapper.Sample(circ, dev, n, sampleSeed)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if prior, ok := e.mappings[key]; ok {
		maps = prior
	} else {
		e.mappings[key] = maps
	}
	e.mu.Unlock()
	return maps, nil
}
