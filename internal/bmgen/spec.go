// Package bmgen synthesizes complete placement benchmark suites from small
// declarative specs, reproducing the reference QPlacer benchmark pipeline:
// connectivity-graph construction → graph-coloring frequency assignment →
// collision-map derivation. Generation is fully deterministic per seed — the
// PRNG is threaded explicitly and no global state is consulted — so a
// generated suite can join the golden corpus and be regenerated bit for bit
// in any process.
package bmgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"qplacer/internal/component"
	"qplacer/internal/physics"
)

// ErrInvalidSpec reports a Spec that cannot describe any suite.
var ErrInvalidSpec = errors.New("bmgen: invalid spec")

// ErrInvalidSuite reports a Suite that fails well-formedness validation.
var ErrInvalidSuite = errors.New("bmgen: invalid suite")

// Families accepted by Spec.Family. All but FamilyRandom reuse the
// parametric constructors of internal/topology; FamilyRandom synthesizes a
// seeded connected graph from a degree target.
const (
	FamilyGrid        = "grid"
	FamilyXtree       = "xtree"
	FamilyOctagon     = "octagon"
	FamilyHummingbird = "hummingbird"
	FamilyRandom      = "random"
)

// Frequency-assignment schemes accepted by Spec.FreqScheme.
const (
	// SchemeIsolation is the paper's assigner (§IV-A): frequency-domain
	// isolation of neighbours and distance-2 pairs — exactly what the
	// placement engine derives for the same connectivity, so the suite's
	// recorded frequencies and collision map match the engine's pipeline.
	SchemeIsolation = "isolation"
	// SchemeDSATUR colours the coupling graph with DSATUR and maps colours
	// onto the spectrum levels round-robin — a denser, crowding-heavier
	// assignment that stresses spatial isolation harder.
	SchemeDSATUR = "dsatur"
)

// MaxQubits bounds generated devices; it matches the parser bound in
// internal/topology so a spec cannot demand an absurd suite.
const MaxQubits = 4096

// Spec is the declarative input: what to generate. The zero value of every
// optional field selects a documented default (see Normalize).
type Spec struct {
	// Name names the suite; it becomes the registered topology name and the
	// prefix of generated workload names.
	Name string `json:"name"`
	// Family selects the connectivity construction: grid, xtree, octagon,
	// hummingbird, or random.
	Family string `json:"family"`
	// Qubits sizes family members addressed by count (grid-<n>, xtree-<n>,
	// random); for octagon it must be a multiple of 8. Ignored when
	// Rows/Cols are given.
	Qubits int `json:"qubits,omitempty"`
	// Rows/Cols size rectangular families (grid, octagon) explicitly.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Degree is the random family's target mean degree (default 3).
	Degree float64 `json:"degree,omitempty"`
	// FreqScheme selects the frequency-assignment scheme (default isolation).
	FreqScheme string `json:"freq_scheme,omitempty"`
	// DeltaC is the detuning threshold in GHz (default 0.1).
	DeltaC float64 `json:"delta_c,omitempty"`
	// LB is the resonator segment size l_b in mm used to derive the
	// collision map's instance numbering (default 0.3).
	LB float64 `json:"lb,omitempty"`
	// AreaMM is the substrate area in mm; zero derives a square substrate
	// from the component area at the default utilization target.
	AreaMM [2]float64 `json:"area_mm,omitempty"`
	// Seed drives every random choice (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workloads also generates benchmark circuits sized to the device.
	Workloads bool `json:"workloads,omitempty"`
}

// defaultUtilization is the component-area/substrate-area target used when
// AreaMM is left to be derived.
const defaultUtilization = 0.25

// Normalize fills defaults and validates the spec, returning the canonical
// form that seeds the spec hash. Errors wrap ErrInvalidSpec.
func (s Spec) Normalize() (Spec, error) {
	if s.Name == "" {
		return s, fmt.Errorf("%w: empty name", ErrInvalidSpec)
	}
	if s.Qubits < 0 || s.Rows < 0 || s.Cols < 0 {
		return s, fmt.Errorf("%w: negative size", ErrInvalidSpec)
	}
	if (s.Rows == 0) != (s.Cols == 0) {
		return s, fmt.Errorf("%w: rows and cols must be given together", ErrInvalidSpec)
	}
	if math.IsNaN(s.Degree) || math.IsInf(s.Degree, 0) ||
		math.IsNaN(s.DeltaC) || math.IsInf(s.DeltaC, 0) ||
		math.IsNaN(s.LB) || math.IsInf(s.LB, 0) ||
		math.IsNaN(s.AreaMM[0]) || math.IsInf(s.AreaMM[0], 0) ||
		math.IsNaN(s.AreaMM[1]) || math.IsInf(s.AreaMM[1], 0) {
		return s, fmt.Errorf("%w: non-finite numeric field", ErrInvalidSpec)
	}
	if s.AreaMM[0] < 0 || s.AreaMM[1] < 0 || (s.AreaMM[0] == 0) != (s.AreaMM[1] == 0) {
		return s, fmt.Errorf("%w: area sides must both be positive or both derived", ErrInvalidSpec)
	}
	switch s.Family {
	case FamilyGrid, FamilyXtree, FamilyOctagon, FamilyHummingbird, FamilyRandom:
	case "":
		return s, fmt.Errorf("%w: empty family", ErrInvalidSpec)
	default:
		return s, fmt.Errorf("%w: unknown family %q", ErrInvalidSpec, s.Family)
	}
	switch s.Family {
	case FamilyRandom:
		if s.Rows != 0 {
			return s, fmt.Errorf("%w: rows/cols do not apply to the random family", ErrInvalidSpec)
		}
		if s.Qubits == 0 {
			return s, fmt.Errorf("%w: the random family needs qubits", ErrInvalidSpec)
		}
		if s.Qubits < 4 {
			return s, fmt.Errorf("%w: random family needs >= 4 qubits", ErrInvalidSpec)
		}
		if s.Degree == 0 {
			s.Degree = 3
		}
		if s.Degree < 2 || s.Degree >= float64(s.Qubits) {
			return s, fmt.Errorf("%w: degree %.3g outside [2, qubits)", ErrInvalidSpec, s.Degree)
		}
	case FamilyXtree:
		if s.Rows != 0 {
			return s, fmt.Errorf("%w: rows/cols do not apply to the xtree family", ErrInvalidSpec)
		}
		if s.Qubits == 0 {
			return s, fmt.Errorf("%w: the xtree family needs qubits", ErrInvalidSpec)
		}
	case FamilyHummingbird:
		if s.Rows != 0 {
			return s, fmt.Errorf("%w: rows/cols do not apply to the hummingbird family", ErrInvalidSpec)
		}
		if s.Qubits == 0 {
			s.Qubits = 65
		}
		if s.Qubits != 65 {
			return s, fmt.Errorf("%w: the hummingbird family has 65 qubits", ErrInvalidSpec)
		}
	default: // grid, octagon
		if s.Qubits == 0 && s.Rows == 0 {
			return s, fmt.Errorf("%w: the %s family needs qubits or rows+cols", ErrInvalidSpec, s.Family)
		}
		if s.Qubits != 0 && s.Rows != 0 {
			return s, fmt.Errorf("%w: give qubits or rows+cols, not both", ErrInvalidSpec)
		}
	}
	if s.Family != FamilyRandom && s.Degree != 0 {
		return s, fmt.Errorf("%w: degree applies only to the random family", ErrInvalidSpec)
	}
	if n := s.sizeUpperBound(); n > MaxQubits {
		return s, fmt.Errorf("%w: %d qubits exceeds the %d bound", ErrInvalidSpec, n, MaxQubits)
	}
	switch s.FreqScheme {
	case "":
		s.FreqScheme = SchemeIsolation
	case SchemeIsolation, SchemeDSATUR:
	default:
		return s, fmt.Errorf("%w: unknown freq_scheme %q", ErrInvalidSpec, s.FreqScheme)
	}
	if s.DeltaC == 0 {
		s.DeltaC = physics.DetuneThresholdGHz
	}
	if s.DeltaC < 0 {
		return s, fmt.Errorf("%w: negative delta_c", ErrInvalidSpec)
	}
	if s.LB == 0 {
		s.LB = 0.3
	}
	if s.LB < component.MinSegmentSizeMM {
		return s, fmt.Errorf("%w: lb %v mm is below the %v mm minimum", ErrInvalidSpec, s.LB, component.MinSegmentSizeMM)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s, nil
}

// sizeUpperBound estimates the qubit count implied by the sizing fields; the
// exact count is resolved during generation.
func (s Spec) sizeUpperBound() int {
	n := s.Qubits
	if s.Rows != 0 {
		n = s.Rows * s.Cols
		if s.Family == FamilyOctagon {
			n *= 8
		}
	}
	return n
}

// Hash returns the canonical spec fingerprint: the hex SHA-256 of the
// normalized spec's JSON encoding. Two specs hash equal iff every
// result-shaping field agrees after defaulting.
func (s Spec) Hash() (string, error) {
	norm, err := s.Normalize()
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
