package bmgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/graph"
	"qplacer/internal/topology"
)

// Suite is a complete generated benchmark: the spec that produced it, its
// fingerprint, and every derived artifact. The JSON encoding is the on-disk
// interchange format; because Go's encoder is deterministic and generation is
// seeded, equal specs yield byte-identical files.
type Suite struct {
	SchemaVersion int         `json:"schema_version"`
	Spec          Spec        `json:"spec"`
	SpecHash      string      `json:"spec_hash"`
	Topology      Topology    `json:"topology"`
	Frequencies   Frequencies `json:"frequencies"`
	Collisions    Collisions  `json:"collisions"`
	// AreaMM is the substrate (width, height) in mm, given or derived.
	AreaMM    [2]float64 `json:"area_mm"`
	Workloads []Workload `json:"workloads,omitempty"`
}

// Topology is the suite's connectivity graph with canonical coordinates.
type Topology struct {
	Name        string       `json:"name"`
	Description string       `json:"description"`
	NumQubits   int          `json:"num_qubits"`
	Edges       [][2]int     `json:"edges"`
	Coords      [][2]float64 `json:"coords"`
}

// Frequencies records the scheme's output: one frequency per qubit and per
// coupling resonator, plus the residual crowding conflict counts.
type Frequencies struct {
	Scheme             string    `json:"scheme"`
	DeltaCGHz          float64   `json:"delta_c_ghz"`
	QubitGHz           []float64 `json:"qubit_ghz"`
	ResonatorGHz       []float64 `json:"resonator_ghz"`
	QubitConflicts     int       `json:"qubit_conflicts"`
	ResonatorConflicts int       `json:"resonator_conflicts"`
}

// Collisions is the derived collision map over netlist instances: pairs that
// sit within the detuning threshold and must be spatially isolated.
type Collisions struct {
	LBmm         float64  `json:"lb_mm"`
	NumInstances int      `json:"num_instances"`
	Pairs        [][2]int `json:"pairs"`
}

// Workload is a benchmark circuit stored as an explicit gate list, so loading
// a suite never re-runs generator code.
type Workload struct {
	Name      string `json:"name"`
	NumQubits int    `json:"num_qubits"`
	Gates     []Gate `json:"gates"`
}

// Gate mirrors circuit.Gate with JSON tags.
type Gate struct {
	Name   string `json:"name"`
	Qubits []int  `json:"qubits"`
}

func flattenCoords(pts []geom.Point) [][2]float64 {
	out := make([][2]float64, len(pts))
	for i, p := range pts {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

// WriteJSON writes the suite's canonical encoding: indented JSON plus a
// trailing newline. This is the byte stream the determinism contract pins.
func (s *Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSuite decodes one suite from r. Unknown fields fail loudly — a typo'd
// hand-edited suite should not silently lose data.
func ReadSuite(r io.Reader) (*Suite, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSuite, err)
	}
	return &s, nil
}

// Device rebuilds the suite's topology as a validated device. The device
// carries the suite name, so registering it makes the suite a first-class
// topology for the whole pipeline.
func (s *Suite) Device() (*topology.Device, error) {
	t := s.Topology
	if t.NumQubits <= 0 || len(t.Coords) != t.NumQubits {
		return nil, fmt.Errorf("%w: topology has %d qubits but %d coords",
			ErrInvalidSuite, t.NumQubits, len(t.Coords))
	}
	g := graph.New(t.NumQubits)
	for _, e := range t.Edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= t.NumQubits || e[1] >= t.NumQubits || e[0] == e[1] {
			return nil, fmt.Errorf("%w: edge %v out of range", ErrInvalidSuite, e)
		}
		g.AddEdge(e[0], e[1])
	}
	coords := make([]geom.Point, len(t.Coords))
	for i, c := range t.Coords {
		coords[i] = geom.Point{X: c[0], Y: c[1]}
	}
	dev := &topology.Device{
		Name:        t.Name,
		Description: t.Description,
		NumQubits:   t.NumQubits,
		Graph:       g,
		Coords:      coords,
	}
	if err := dev.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSuite, err)
	}
	return dev, nil
}

// Validate checks suite well-formedness from first principles: the topology
// must be a valid connected device, every recorded frequency must sit inside
// its band, the collision map must equal a recomputation from the recorded
// frequencies, the substrate must fit the components, workloads must be
// executable, and the spec hash must match the embedded spec. Errors wrap
// ErrInvalidSuite.
func (s *Suite) Validate() error {
	if s.SchemaVersion != 1 {
		return fmt.Errorf("%w: unsupported schema_version %d", ErrInvalidSuite, s.SchemaVersion)
	}
	hash, err := s.Spec.Hash()
	if err != nil {
		return fmt.Errorf("%w: embedded spec: %v", ErrInvalidSuite, err)
	}
	if hash != s.SpecHash {
		return fmt.Errorf("%w: spec_hash %.12s... does not match the embedded spec (%.12s...)",
			ErrInvalidSuite, s.SpecHash, hash)
	}
	dev, err := s.Device()
	if err != nil {
		return err
	}

	f := s.Frequencies
	if len(f.QubitGHz) != dev.NumQubits || len(f.ResonatorGHz) != dev.NumEdges() {
		return fmt.Errorf("%w: %d qubit / %d resonator frequencies for %d qubits / %d couplings",
			ErrInvalidSuite, len(f.QubitGHz), len(f.ResonatorGHz), dev.NumQubits, dev.NumEdges())
	}
	if err := inBand(f.QubitGHz, frequency.QubitSpectrum(), "qubit"); err != nil {
		return err
	}
	if err := inBand(f.ResonatorGHz, frequency.ResonatorSpectrum(), "resonator"); err != nil {
		return err
	}
	if f.DeltaCGHz <= 0 {
		return fmt.Errorf("%w: non-positive delta_c", ErrInvalidSuite)
	}

	if s.Collisions.LBmm <= 0 {
		return fmt.Errorf("%w: non-positive lb", ErrInvalidSuite)
	}
	ccfg := component.DefaultConfig()
	ccfg.SegmentSize = s.Collisions.LBmm
	nl, err := component.Build(dev, f.QubitGHz, f.ResonatorGHz, ccfg)
	if err != nil {
		return fmt.Errorf("%w: netlist: %v", ErrInvalidSuite, err)
	}
	if len(nl.Instances) != s.Collisions.NumInstances {
		return fmt.Errorf("%w: %d instances recorded, %d derived",
			ErrInvalidSuite, s.Collisions.NumInstances, len(nl.Instances))
	}
	cm := frequency.BuildCollisionMap(nl, f.DeltaCGHz)
	want := cm.Pairs
	got := s.Collisions.Pairs
	if len(want) == 0 && len(got) == 0 {
		// both empty: nil vs [] is an encoding artifact, not a mismatch
	} else if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%w: collision map disagrees with recomputation (%d recorded, %d derived pairs)",
			ErrInvalidSuite, len(got), len(want))
	}

	if s.AreaMM[0] <= 0 || s.AreaMM[1] <= 0 ||
		math.IsNaN(s.AreaMM[0]) || math.IsNaN(s.AreaMM[1]) {
		return fmt.Errorf("%w: invalid substrate area %v", ErrInvalidSuite, s.AreaMM)
	}
	if total := nl.TotalPaddedArea(); s.AreaMM[0]*s.AreaMM[1] < total {
		return fmt.Errorf("%w: substrate %.1f mm² cannot fit %.1f mm² of components",
			ErrInvalidSuite, s.AreaMM[0]*s.AreaMM[1], total)
	}

	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if w.Name == "" || seen[w.Name] {
			return fmt.Errorf("%w: empty or duplicate workload name %q", ErrInvalidSuite, w.Name)
		}
		seen[w.Name] = true
		if w.NumQubits < 1 || w.NumQubits > dev.NumQubits {
			return fmt.Errorf("%w: workload %s wants %d qubits on a %d-qubit device",
				ErrInvalidSuite, w.Name, w.NumQubits, dev.NumQubits)
		}
		for _, g := range w.Gates {
			if g.Name == "" || len(g.Qubits) < 1 || len(g.Qubits) > 2 {
				return fmt.Errorf("%w: workload %s has a malformed gate %+v", ErrInvalidSuite, w.Name, g)
			}
			for _, q := range g.Qubits {
				if q < 0 || q >= w.NumQubits {
					return fmt.Errorf("%w: workload %s gate %s touches qubit %d of %d",
						ErrInvalidSuite, w.Name, g.Name, q, w.NumQubits)
				}
			}
		}
	}
	return nil
}

func inBand(freqs []float64, band frequency.Spectrum, what string) error {
	const eps = 1e-9
	for i, f := range freqs {
		if math.IsNaN(f) || f < band.Lo-eps || f > band.Hi+eps {
			return fmt.Errorf("%w: %s %d frequency %.4f GHz outside [%.2f, %.2f]",
				ErrInvalidSuite, what, i, f, band.Lo, band.Hi)
		}
	}
	return nil
}
