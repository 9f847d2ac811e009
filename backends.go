package qplacer

import (
	"context"
	"fmt"

	"qplacer/internal/anneal"
	"qplacer/internal/component"
	"qplacer/internal/detail"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/legal"
	"qplacer/internal/obs"
	"qplacer/internal/place"
)

// This file adapts the internal pipeline implementations to the public
// Placer/Legalizer/DetailedPlacer interfaces and registers them as the
// built-in backends: the Nesterov electrostatic placer ("nesterov", the
// default), the simulated-annealing placer ("anneal"), the integration-aware
// legalizer ("shelf", the default), the greedy row-scan legalizer
// ("greedy"), and the detailed placers — the identity stage ("none", the
// default), the min-cost-flow reassignment pass ("mcmf"), and the
// frequency-aware local-swap hill climb ("swap").

// nesterovPlacer is the frequency-aware electrostatic engine of §IV-C,
// refactored behind the Placer interface.
type nesterovPlacer struct{}

func (nesterovPlacer) Name() string { return DefaultPlacerName }

func (nesterovPlacer) Place(ctx context.Context, st *StageState, observer Observer) (*PlaceOutcome, error) {
	cfg := place.DefaultConfig()
	cfg.Span = obs.SpanFrom(ctx)
	cfg.Seed = st.Options.Seed
	if st.Options.MaxIters > 0 {
		cfg.MaxIters = st.Options.MaxIters
	}
	if st.Options.Scheme == SchemeClassic {
		cfg.Mode = place.ModeClassic
	}
	cfg.Progress = func(iter int, overflow float64) {
		observer.OnProgress(Progress{
			Stage: StagePlace, Backend: DefaultPlacerName,
			Iteration: iter, Objective: overflow,
		})
	}
	res, err := place.PlaceCtx(ctx, st.Netlist, st.Collision, cfg)
	if err != nil {
		return nil, err
	}
	return &PlaceOutcome{
		Region:     res.Region,
		Iterations: res.Iterations,
		Runtime:    res.Runtime,
		AvgIterMS:  res.AvgIterMS,
		Overflow:   res.Overflow,
	}, nil
}

// annealPlacer is the seeded simulated-annealing backend of internal/anneal.
type annealPlacer struct{}

func (annealPlacer) Name() string { return "anneal" }

func (annealPlacer) Place(ctx context.Context, st *StageState, observer Observer) (*PlaceOutcome, error) {
	cfg := anneal.DefaultConfig()
	cfg.Span = obs.SpanFrom(ctx)
	cfg.Seed = st.Options.Seed
	if st.Options.MaxIters > 0 {
		cfg.Sweeps = st.Options.MaxIters
	}
	cfg.Progress = func(sweep int, cost float64) {
		observer.OnProgress(Progress{
			Stage: StagePlace, Backend: "anneal",
			Iteration: sweep, Objective: cost,
		})
	}
	cm := st.Collision
	if st.Options.Scheme == SchemeClassic {
		cm = nil // the crosstalk-oblivious baseline, like ModeClassic
	}
	res, err := anneal.Place(ctx, st.Netlist, cm, cfg)
	if err != nil {
		return nil, err
	}
	return &PlaceOutcome{
		Region:     res.Region,
		Iterations: res.Sweeps,
		Runtime:    res.Runtime,
		AvgIterMS:  res.AvgIterMS,
	}, nil
}

// legalBackend adapts one internal/legal entry point behind the Legalizer
// interface: the integration-aware legalizer of §IV-C2 (greedy spiral +
// min-cost-flow + Tetris + integration repair, "shelf") or its greedy
// row-scan variant ("greedy"). Both guard the stage's collision map, and
// both note on the stage span how often that guard or the spot search gave
// up (legal.Result's GuardFallbacks and SpotFailures).
type legalBackend struct {
	name string
	run  func(context.Context, *component.Netlist, geom.Rect, *frequency.CollisionMap, legal.Config) (*legal.Result, error)
}

func (l legalBackend) Name() string { return l.name }

func (l legalBackend) Legalize(ctx context.Context, st *StageState, region geom.Rect, observer Observer) (*LegalizeOutcome, error) {
	cfg := legal.DefaultConfig()
	cfg.Span = obs.SpanFrom(ctx)
	// The Classic baseline gets the classical (frequency-oblivious)
	// legalizer, exactly as it would from its own engine.
	cfg.FrequencyAware = st.Options.Scheme == SchemeQplacer
	// Completed passes are the iteration, the total the objective, so
	// observers can show a fraction.
	cfg.Progress = func(step, total int) {
		observer.OnProgress(Progress{
			Stage: StageLegalize, Backend: l.name,
			Iteration: step, Objective: float64(total),
		})
	}
	res, err := l.run(ctx, st.Netlist, region, st.Collision, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Span.Note(fmt.Sprintf("%d guard fallbacks, %d spot failures", res.GuardFallbacks, res.SpotFailures))
	return &LegalizeOutcome{
		IntegratedAll:       res.IntegratedAll,
		QubitDisplacement:   res.QubitDisplacement,
		SegmentDisplacement: res.SegmentDisplacement,
	}, nil
}

// noneDetailed is the identity detailed placer: it refines nothing, so the
// pipeline behaves exactly as it did before the stage existed. The engine
// fast-paths it without invoking Refine, keeping the default path free of
// even a span node; the implementation here serves direct callers.
type noneDetailed struct{}

func (noneDetailed) Name() string { return DefaultDetailedPlacerName }

func (noneDetailed) Refine(_ context.Context, st *StageState, _ geom.Rect, _ Observer) (*DetailOutcome, error) {
	w := place.HPWL(st.Netlist)
	return &DetailOutcome{HPWLBefore: w, HPWLAfter: w}, nil
}

// detailBackend adapts one internal/detail pass behind the DetailedPlacer
// interface: the deterministic independent-set + min-cost-flow reassignment
// ("mcmf") or the seeded frequency-aware local-swap hill climb ("swap").
type detailBackend struct {
	name string
	run  func(context.Context, *component.Netlist, detail.Config) (*detail.Result, error)
}

func (d detailBackend) Name() string { return d.name }

func (d detailBackend) Refine(ctx context.Context, st *StageState, _ geom.Rect, observer Observer) (*DetailOutcome, error) {
	res, err := d.run(ctx, st.Netlist, detail.Config{
		Span:      obs.SpanFrom(ctx),
		Collision: st.Collision,
		Seed:      st.Options.Seed,
		Progress: func(step int, hpwl float64) {
			observer.OnProgress(Progress{
				Stage: StageDetail, Backend: d.name,
				Iteration: step, Objective: hpwl,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	return &DetailOutcome{Moved: res.Moved, HPWLBefore: res.HPWLBefore, HPWLAfter: res.HPWLAfter}, nil
}

func init() {
	for _, err := range []error{
		RegisterPlacer(nesterovPlacer{}),
		RegisterPlacer(annealPlacer{}),
		RegisterLegalizer(legalBackend{name: DefaultLegalizerName, run: legal.LegalizeCtx}),
		RegisterLegalizer(legalBackend{name: "greedy", run: legal.RowScanCtx}),
		RegisterDetailedPlacer(noneDetailed{}),
		RegisterDetailedPlacer(detailBackend{name: "mcmf", run: detail.MCMF}),
		RegisterDetailedPlacer(detailBackend{name: "swap", run: detail.Swap}),
	} {
		if err != nil {
			panic(err)
		}
	}
}
