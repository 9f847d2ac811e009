package qplacer

import (
	"fmt"
	"math"
	"runtime"

	"qplacer/internal/component"
	"qplacer/internal/physics"
)

// Scheme selects the placement strategy of §V-B.
type Scheme int

const (
	// SchemeQplacer is the frequency-aware electrostatic engine.
	SchemeQplacer Scheme = iota
	// SchemeClassic is the same engine without the frequency force.
	SchemeClassic
	// SchemeHuman is the manually optimized IBM-style grid baseline.
	SchemeHuman
)

// String returns the scheme's wire name ("qplacer", "classic", "human"),
// the same form ParseScheme accepts and JSON marshalling emits.
func (s Scheme) String() string {
	switch s {
	case SchemeQplacer:
		return "qplacer"
	case SchemeClassic:
		return "classic"
	case SchemeHuman:
		return "human"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme converts a scheme name ("qplacer", "classic", "human") to its
// Scheme value. Unknown names wrap ErrUnknownScheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "qplacer":
		return SchemeQplacer, nil
	case "classic":
		return SchemeClassic, nil
	case "human":
		return SchemeHuman, nil
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownScheme, name)
}

// DefaultMappings is the paper's subset-mapping count per evaluation (§VI-A).
const DefaultMappings = 50

// Options configures a placement run. Zero values select the paper's
// defaults (§V-C). Options is comparable: the normalized value doubles as
// the Engine's stage- and plan-cache key.
type Options struct {
	Topology string  `json:"topology"` // any registered topology name (see RegisteredTopologies)
	Scheme   Scheme  `json:"scheme"`   // placement strategy, as its string name on the wire
	LB       float64 `json:"lb"`       // resonator segment size l_b in mm (default 0.3)
	DeltaC   float64 `json:"delta_c"`  // detuning threshold Δc in GHz (default 0.1)
	Seed     int64   `json:"seed"`     // engine seed (default 1)

	// MaxIters overrides the global-placement iteration cap (0 = default).
	// The gradient placer reads it as Nesterov iterations; the annealing
	// placer as sweeps.
	MaxIters int `json:"max_iters,omitempty"`
	// SkipLegalize leaves the global placement unlegalized (ablations).
	SkipLegalize bool `json:"skip_legalize,omitempty"`

	// Placer selects the global-placement backend by registered name
	// ("" resolves to DefaultPlacerName; see Placers).
	Placer string `json:"placer,omitempty"`
	// Legalizer selects the legalization backend by registered name
	// ("" resolves to DefaultLegalizerName; see Legalizers).
	Legalizer string `json:"legalizer,omitempty"`
	// DetailedPlacer selects the post-legalization refinement backend by
	// registered name ("" resolves to DefaultDetailedPlacerName, the identity
	// stage; see DetailedPlacers).
	DetailedPlacer string `json:"detailed_placer,omitempty"`
}

// Normalized returns the canonical form of the options — defaults filled in,
// scheme validated — which the Engine uses as its plan-cache key. Services
// deduplicating equivalent requests should key on this value.
func (o Options) Normalized() (Options, error) {
	// Non-finite numerics can slip past every downstream <= 0 guard (NaN
	// compares false both ways) and poison cache keys, and a negative Δc
	// would be read as the default by the placer but as "no pairs" by the
	// metrics, so both are rejected here with the typed sentinel.
	if math.IsNaN(o.LB) || math.IsInf(o.LB, 0) || o.LB < 0 {
		return o, fmt.Errorf("%w: lb %v is not a finite value ≥ 0", ErrInvalidOptions, o.LB)
	}
	if math.IsNaN(o.DeltaC) || math.IsInf(o.DeltaC, 0) || o.DeltaC < 0 {
		return o, fmt.Errorf("%w: delta_c %v is not a finite value ≥ 0", ErrInvalidOptions, o.DeltaC)
	}
	if o.Topology == "" {
		o.Topology = "grid"
	}
	if o.LB == 0 {
		o.LB = 0.3
	}
	if o.LB < component.MinSegmentSizeMM {
		return o, fmt.Errorf("%w: lb %v mm is below the %v mm minimum", ErrInvalidOptions, o.LB, component.MinSegmentSizeMM)
	}
	if o.DeltaC == 0 {
		o.DeltaC = physics.DetuneThresholdGHz
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxIters < 0 {
		o.MaxIters = 0
	}
	switch o.Scheme {
	case SchemeQplacer, SchemeClassic, SchemeHuman:
	default:
		return o, fmt.Errorf("%w %v", ErrUnknownScheme, o.Scheme)
	}
	if o.Placer == "" {
		o.Placer = DefaultPlacerName
	}
	if _, err := PlacerByName(o.Placer); err != nil {
		return o, err
	}
	if o.Legalizer == "" {
		o.Legalizer = DefaultLegalizerName
	}
	if _, err := LegalizerByName(o.Legalizer); err != nil {
		return o, err
	}
	if o.DetailedPlacer == "" {
		o.DetailedPlacer = DefaultDetailedPlacerName
	}
	if _, err := DetailedPlacerByName(o.DetailedPlacer); err != nil {
		return o, err
	}
	return o, nil
}

// settings is the merged engine + per-call configuration that functional
// options operate on. Knobs that change results live in Options (the cache
// key); knobs that only change how results are computed — the EvaluateAll
// worker count, observers, validation — live beside it.
type settings struct {
	opts       Options
	workers    int
	observer   Observer
	validation ValidationMode
}

func defaultSettings() settings {
	return settings{workers: runtime.GOMAXPROCS(0)}
}

// Option configures an Engine at construction (New) or one call (Plan).
// Per-call options start from the engine's settings and override them for
// that call only.
type Option func(*settings)

// WithTopology selects the device topology by registered name.
func WithTopology(name string) Option {
	return func(s *settings) { s.opts.Topology = name }
}

// WithScheme selects the placement strategy.
func WithScheme(sch Scheme) Option {
	return func(s *settings) { s.opts.Scheme = sch }
}

// WithLB sets the resonator segment size l_b in mm.
func WithLB(lb float64) Option {
	return func(s *settings) { s.opts.LB = lb }
}

// WithDeltaC sets the detuning threshold Δc in GHz.
func WithDeltaC(deltaC float64) Option {
	return func(s *settings) { s.opts.DeltaC = deltaC }
}

// WithSeed sets the deterministic engine seed.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.opts.Seed = seed }
}

// WithMaxIters caps the global-placement iterations (0 restores the default).
func WithMaxIters(n int) Option {
	return func(s *settings) { s.opts.MaxIters = n }
}

// WithSkipLegalize leaves the global placement unlegalized (ablations).
func WithSkipLegalize(skip bool) Option {
	return func(s *settings) { s.opts.SkipLegalize = skip }
}

// WithPlacer selects the global-placement backend by registered name
// (see Placers; "" restores the default).
func WithPlacer(name string) Option {
	return func(s *settings) { s.opts.Placer = name }
}

// WithLegalizer selects the legalization backend by registered name
// (see Legalizers; "" restores the default).
func WithLegalizer(name string) Option {
	return func(s *settings) { s.opts.Legalizer = name }
}

// WithDetailedPlacer selects the detailed-placement backend by registered
// name (see DetailedPlacers; "" restores the default identity stage).
func WithDetailedPlacer(name string) Option {
	return func(s *settings) { s.opts.DetailedPlacer = name }
}

// WithObserver streams Progress events from the run's backends to obs. As an
// engine option it observes every plan; as a per-call option it observes that
// call only. Warm plan-cache hits complete without events (no stage runs).
// nil removes the observer.
func WithObserver(obs Observer) Option {
	return func(s *settings) { s.observer = obs }
}

// WithValidation runs the independent verifier (see Validate) after every
// plan. ValidationAnnotate attaches the report to PlanResult.Validation;
// ValidationStrict additionally fails Plan with ErrInvalidPlacement when the
// report carries error-severity violations. Warm cache hits are verified
// (once) too, so a corrupted cache entry cannot slip through. As an engine
// option it applies to every plan; as a per-call option to that call only.
func WithValidation(mode ValidationMode) Option {
	return func(s *settings) { s.validation = mode }
}

// WithOptions replaces the whole Options struct at once, for callers that
// build an Options value (decoded JSON, a sweep) rather than single options.
func WithOptions(o Options) Option {
	return func(s *settings) { s.opts = o }
}

// WithWorkers bounds the EvaluateAll worker pool (default GOMAXPROCS). It
// controls how many benchmarks are evaluated concurrently; a single
// placement always runs on the calling goroutine.
func WithWorkers(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithParallelism is a no-op kept so existing callers compile; it ignores
// its argument.
//
// Deprecated: a placement always runs serially. Measured on 1- and 2-CPU
// hosts, fanning one placement out over worker goroutines was slower than
// the serial path, so the intra-plan worker pool is gone. Concurrency
// across plans remains: see WithWorkers and EvaluateAll.
func WithParallelism(int) Option {
	return func(*settings) {}
}
