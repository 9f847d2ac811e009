package qplacer

import (
	"context"
	"fmt"

	"qplacer/internal/geom"
	"qplacer/internal/registry"
)

// This file defines the third pluggable pipeline stage: detailed placement.
// After legalization produces an overlap-free layout, a DetailedPlacer
// refines it in place — qGDP-style (arxiv 2411.02447): reassignment and
// local-swap moves over the discrete site set the legalizer claimed — under
// a strict improvement contract. The registry mirrors the Placer/Legalizer
// design so detailed placers are addressable by name from Options, both
// CLIs, and the service's JSON requests.

// DetailOutcome reports a finished detailed-placement pass.
type DetailOutcome struct {
	// Moved is how many instances ended at a different position than
	// legalization left them.
	Moved int
	// HPWLBefore and HPWLAfter are the layout's half-perimeter wirelength
	// (mm, summed over the netlist's two-pin nets) entering and leaving the
	// stage. Conforming backends never report HPWLAfter > HPWLBefore.
	HPWLBefore float64
	HPWLAfter  float64
}

// DetailedPlacer is a detailed-placement backend: it refines the legalized
// layout in st.Netlist near region, with the same Observer and ctx contract
// as Placer and Legalizer. Conforming implementations must keep the layout
// Validate-clean (no new error-severity violations) and must never increase
// its HPWL — the conformance suite holds every registered backend to both.
type DetailedPlacer interface {
	// Name is the registry key ("none", "mcmf", "swap", ...).
	Name() string
	Refine(ctx context.Context, st *StageState, region geom.Rect, obs Observer) (*DetailOutcome, error)
}

// DefaultDetailedPlacerName is the backend a zero Options value resolves to:
// the identity stage, i.e. the pipeline exactly as it behaved before
// detailed placement existed. On the wire "" and "none" are interchangeable.
const DefaultDetailedPlacerName = "none"

var detaileds = registry.New[DetailedPlacer](ErrDuplicateDetailedPlacer, ErrUnknownDetailedPlacer)

// RegisterDetailedPlacer makes a detailed-placement backend available to
// every engine under d.Name(), exactly like the built-in "none", "mcmf", and
// "swap" backends. Registering a nil backend, an empty name, or a taken name
// fails (duplicates wrap ErrDuplicateDetailedPlacer).
func RegisterDetailedPlacer(d DetailedPlacer) error {
	if d == nil {
		return fmt.Errorf("qplacer: register nil detailed placer")
	}
	return detaileds.Register(d.Name(), d)
}

// DetailedPlacers returns every registered detailed-placer name, sorted —
// built-ins plus RegisterDetailedPlacer additions.
func DetailedPlacers() []string { return detaileds.Names() }

// DetailedPlacerByName returns the registered detailed-placement backend.
// The error wraps ErrUnknownDetailedPlacer when no backend is registered
// under the name.
func DetailedPlacerByName(name string) (DetailedPlacer, error) { return detaileds.Get(name) }
