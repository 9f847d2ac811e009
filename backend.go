package qplacer

import (
	"context"
	"fmt"
	"time"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/registry"
	"qplacer/internal/topology"
)

// This file defines the pluggable stage backends of the pipeline: the Placer
// and Legalizer interfaces, the runtime registries that make backends
// addressable by name from Options (and therefore from the CLI flags and the
// service's JSON requests), and the streaming Progress/Observer API that lets
// callers watch a long run mid-flight.

// Stage identifies the pipeline stage a Progress event belongs to.
type Stage string

const (
	// StagePlace is global placement.
	StagePlace Stage = "place"
	// StageLegalize is legalization.
	StageLegalize Stage = "legalize"
	// StageDetail is detailed placement: the post-legalization refinement
	// stage (see DetailedPlacer).
	StageDetail Stage = "detail"
)

// Progress is one streaming progress event emitted by a backend while it
// runs. Iteration is monotonically non-decreasing within one stage of one
// run; Objective is the backend's own convergence measure (density overflow
// for the gradient placer, annealing cost for the annealer, completed work
// for the legalizers) and is only comparable within a single stage.
type Progress struct {
	Stage     Stage   `json:"stage"`
	Backend   string  `json:"backend"`
	Iteration int     `json:"iteration"`
	Objective float64 `json:"objective"`
}

// Observer receives Progress events. Implementations must be fast and
// non-blocking: backends call OnProgress synchronously from their hot loops.
// An Observer passed to an Engine may be invoked from whichever goroutine
// runs the plan.
type Observer interface {
	OnProgress(Progress)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Progress)

// OnProgress calls f.
func (f ObserverFunc) OnProgress(p Progress) { f(p) }

// nopObserver is what backends see when no observer is configured, so
// implementations never need a nil check.
type nopObserver struct{}

func (nopObserver) OnProgress(Progress) {}

// StageState is the typed state a stage backend operates on: the normalized
// options of the run, the device, the mutable netlist owned by this run
// (backends move its instances in place), and the frequency collision map.
// The netlist and collision map are the engine's cached stage products;
// backends must treat Device and Collision as read-only.
type StageState struct {
	Options   Options
	Device    *topology.Device
	Netlist   *component.Netlist
	Collision *frequency.CollisionMap
}

// PlaceOutcome reports a finished global placement.
type PlaceOutcome struct {
	// Region is the placement region the backend worked in; the legalizer
	// packs the layout within (roughly) this rectangle.
	Region     geom.Rect
	Iterations int
	Runtime    time.Duration
	AvgIterMS  float64
	// Overflow is the backend's final density-overflow fraction (0 when the
	// backend does not track one); benchmark harnesses use it to check
	// quality parity across worker counts.
	Overflow float64
}

// Placer is a global-placement backend. Place mutates st.Netlist instance
// positions, emits Progress events on obs (never nil when called by an
// Engine), and honours ctx: cancellation must surface as the context's error
// within a bounded amount of work.
type Placer interface {
	// Name is the registry key ("nesterov", "anneal", ...).
	Name() string
	Place(ctx context.Context, st *StageState, obs Observer) (*PlaceOutcome, error)
}

// LegalizeOutcome reports a finished legalization.
type LegalizeOutcome struct {
	// IntegratedAll is true when every resonator's segments form one
	// contiguous cluster in the final layout.
	IntegratedAll bool
	// QubitDisplacement and SegmentDisplacement are the total distances (mm)
	// legalization moved each instance class.
	QubitDisplacement   float64
	SegmentDisplacement float64
}

// Legalizer is a legalization backend: it snaps the globally placed netlist
// in st.Netlist into an overlap-free layout near region, with the same
// Observer and ctx contract as Placer.
type Legalizer interface {
	// Name is the registry key ("shelf", "greedy", ...).
	Name() string
	Legalize(ctx context.Context, st *StageState, region geom.Rect, obs Observer) (*LegalizeOutcome, error)
}

// DefaultPlacerName and DefaultLegalizerName are the backends a zero Options
// value resolves to — the pipeline as it behaved before backends were
// pluggable.
const (
	DefaultPlacerName    = "nesterov"
	DefaultLegalizerName = "shelf"
)

var (
	placers    = registry.New[Placer](ErrDuplicatePlacer, ErrUnknownPlacer)
	legalizers = registry.New[Legalizer](ErrDuplicateLegalizer, ErrUnknownLegalizer)
)

// RegisterPlacer makes a placement backend available to every engine under
// p.Name(), exactly like the built-in "nesterov" and "anneal" backends.
// Registering a nil placer, an empty name, or a taken name fails (duplicates
// wrap ErrDuplicatePlacer).
func RegisterPlacer(p Placer) error {
	if p == nil {
		return fmt.Errorf("qplacer: register nil placer")
	}
	return placers.Register(p.Name(), p)
}

// RegisterLegalizer makes a legalization backend available to every engine
// under l.Name(), exactly like the built-in "shelf" and "greedy" backends.
// Registering a nil legalizer, an empty name, or a taken name fails
// (duplicates wrap ErrDuplicateLegalizer).
func RegisterLegalizer(l Legalizer) error {
	if l == nil {
		return fmt.Errorf("qplacer: register nil legalizer")
	}
	return legalizers.Register(l.Name(), l)
}

// Placers returns every registered placer name, sorted — built-ins plus
// RegisterPlacer additions.
func Placers() []string { return placers.Names() }

// Legalizers returns every registered legalizer name, sorted — built-ins
// plus RegisterLegalizer additions.
func Legalizers() []string { return legalizers.Names() }

// PlacerByName returns the registered placement backend. The error wraps
// ErrUnknownPlacer when no backend is registered under the name.
func PlacerByName(name string) (Placer, error) { return placers.Get(name) }

// LegalizerByName returns the registered legalization backend. The error
// wraps ErrUnknownLegalizer when no backend is registered under the name.
func LegalizerByName(name string) (Legalizer, error) { return legalizers.Get(name) }
