package bmgen

import (
	"fmt"
	"math"
	"math/rand"

	"qplacer/internal/circuit"
	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/graph"
	"qplacer/internal/topology"
)

// Generate synthesizes the complete benchmark suite described by spec:
// connectivity graph, frequency assignment, collision map, substrate area,
// and (optionally) workload circuits. It is deterministic per normalized
// spec — the seed drives a single explicitly threaded PRNG and nothing else
// is random — so equal specs produce byte-identical suites in any process.
func Generate(spec Spec) (*Suite, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	hash, err := norm.Hash()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(norm.Seed))

	dev, err := buildConnectivity(norm, rng)
	if err != nil {
		return nil, err
	}

	assign, err := assignFrequencies(norm, dev)
	if err != nil {
		return nil, err
	}

	ccfg := component.DefaultConfig()
	ccfg.SegmentSize = norm.LB
	nl, err := component.Build(dev, assign.QubitFreq, assign.ResFreq, ccfg)
	if err != nil {
		return nil, err
	}
	cm := frequency.BuildCollisionMap(nl, norm.DeltaC)

	area := norm.AreaMM
	if area[0] == 0 {
		side := math.Ceil(math.Sqrt(nl.TotalPaddedArea() / defaultUtilization))
		area = [2]float64{side, side}
	}

	out := &Suite{
		SchemaVersion: 1,
		Spec:          norm,
		SpecHash:      hash,
		Topology: Topology{
			Name:        norm.Name,
			Description: dev.Description,
			NumQubits:   dev.NumQubits,
			Edges:       dev.Edges(),
			Coords:      flattenCoords(dev.Coords),
		},
		Frequencies: Frequencies{
			Scheme:             norm.FreqScheme,
			DeltaCGHz:          norm.DeltaC,
			QubitGHz:           assign.QubitFreq,
			ResonatorGHz:       assign.ResFreq,
			QubitConflicts:     assign.QubitConflicts,
			ResonatorConflicts: assign.ResConflicts,
		},
		Collisions: Collisions{
			LBmm:         norm.LB,
			NumInstances: len(nl.Instances),
			Pairs:        collisionPairs(cm),
		},
		AreaMM: area,
	}
	if norm.Workloads {
		out.Workloads = buildWorkloads(norm, dev.NumQubits, rng)
	}
	return out, nil
}

// buildConnectivity resolves the spec's family to a concrete device. Every
// family but random reuses the parametric constructors behind
// topology.Parse; the random family grows a seeded connected graph from a
// degree target.
func buildConnectivity(norm Spec, rng *rand.Rand) (*topology.Device, error) {
	if norm.Family == FamilyRandom {
		return randomDevice(norm, rng)
	}
	famName, err := familyName(norm)
	if err != nil {
		return nil, err
	}
	dev, err := topology.Parse(famName)
	if err != nil {
		return nil, fmt.Errorf("%w: family member %q: %v", ErrInvalidSpec, famName, err)
	}
	return dev, nil
}

// familyName renders the spec's sizing fields as a parametric topology name.
func familyName(norm Spec) (string, error) {
	switch norm.Family {
	case FamilyGrid:
		if norm.Rows != 0 {
			return fmt.Sprintf("grid-%dx%d", norm.Rows, norm.Cols), nil
		}
		return fmt.Sprintf("grid-%d", norm.Qubits), nil
	case FamilyXtree:
		return fmt.Sprintf("xtree-%d", norm.Qubits), nil
	case FamilyOctagon:
		rows, cols := norm.Rows, norm.Cols
		if rows == 0 {
			if norm.Qubits%8 != 0 {
				return "", fmt.Errorf("%w: octagon qubits %d not a multiple of 8", ErrInvalidSpec, norm.Qubits)
			}
			rows, cols = squarest(norm.Qubits / 8)
		}
		return fmt.Sprintf("octagon-%dx%d", rows, cols), nil
	case FamilyHummingbird:
		return "hummingbird-65", nil
	}
	return "", fmt.Errorf("%w: family %q has no parametric name", ErrInvalidSpec, norm.Family)
}

// squarest factorizes n as r×c with r <= c and r maximal.
func squarest(n int) (rows, cols int) {
	for r := int(math.Sqrt(float64(n))); r >= 1; r-- {
		if n%r == 0 {
			return r, n / r
		}
	}
	return 1, n
}

// randomDevice grows a connected graph over n qubits: a random attachment
// spanning tree (connectivity by construction) plus seeded chords until the
// target mean degree is met. Coordinates are a row-major unit-pitch grid —
// distinct by construction, which is all the placer's initial layout needs.
func randomDevice(norm Spec, rng *rand.Rand) (*topology.Device, error) {
	n := norm.Qubits
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	wantEdges := int(math.Round(float64(n) * norm.Degree / 2))
	// Bounded attempts keep generation total even for dense targets; the
	// achieved degree is recorded implicitly in the edge list.
	for tries := 0; g.M() < wantEdges && tries < 64*wantEdges; tries++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(a, b)
		}
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	coords := make([]geom.Point, n)
	for i := range coords {
		coords[i] = geom.Point{X: float64(i % cols), Y: float64(i / cols)}
	}
	dev := &topology.Device{
		Name:        norm.Name,
		Description: fmt.Sprintf("Seeded random connected graph, %d qubits, target degree %.3g", n, norm.Degree),
		NumQubits:   n,
		Graph:       g,
		Coords:      coords,
	}
	if err := dev.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return dev, nil
}

// assignFrequencies runs the spec's frequency-assignment scheme.
func assignFrequencies(norm Spec, dev *topology.Device) (*frequency.Assignment, error) {
	switch norm.FreqScheme {
	case SchemeIsolation:
		return frequency.Assign(dev, norm.DeltaC), nil
	case SchemeDSATUR:
		return assignDSATUR(dev, norm.DeltaC), nil
	}
	return nil, fmt.Errorf("%w: unknown freq_scheme %q", ErrInvalidSpec, norm.FreqScheme)
}

// assignDSATUR colours the qubit coupling graph and the resonator
// share-a-qubit graph with DSATUR and maps colours onto the spectrum levels
// round-robin. Unlike the isolation assigner it ignores distance-2 pairs, so
// it yields denser frequency reuse — more residual resonance for spatial
// isolation to absorb. Deterministic: DSATUR breaks ties by index.
func assignDSATUR(dev *topology.Device, deltaC float64) *frequency.Assignment {
	qLevels := frequency.QubitSpectrum().Levels(deltaC, frequency.DefaultMargin)
	rLevels := frequency.ResonatorSpectrum().Levels(deltaC, frequency.DefaultMargin)
	out := &frequency.Assignment{
		QubitFreq:   make([]float64, dev.NumQubits),
		ResFreq:     make([]float64, dev.NumEdges()),
		QubitLevels: qLevels,
		ResLevels:   rLevels,
	}
	qcol := dev.Graph.DSATURColoring()
	for q, c := range qcol {
		out.QubitFreq[q] = qLevels[c%len(qLevels)]
	}
	// Conflict accounting mirrors frequency.Assign: direct same-level pairs
	// weigh 1000, distance-2 pairs 1.
	hard, soft := 0, 0
	for _, e := range dev.Graph.Edges() {
		if out.QubitFreq[e[0]] == out.QubitFreq[e[1]] {
			hard++
		}
	}
	d2 := dev.Graph.Power(2)
	for _, e := range d2.Edges() {
		if !dev.Graph.HasEdge(e[0], e[1]) && out.QubitFreq[e[0]] == out.QubitFreq[e[1]] {
			soft++
		}
	}
	out.QubitConflicts = hard*1000 + soft

	edges := dev.Edges()
	rg := graph.New(max(len(edges), 1))
	byQubit := make([][]int, dev.NumQubits)
	for r, e := range edges {
		byQubit[e[0]] = append(byQubit[e[0]], r)
		byQubit[e[1]] = append(byQubit[e[1]], r)
	}
	for q := 0; q < dev.NumQubits; q++ {
		rs := byQubit[q]
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				rg.AddEdge(rs[i], rs[j])
			}
		}
	}
	rcol := rg.DSATURColoring()
	for r := range edges {
		out.ResFreq[r] = rLevels[rcol[r]%len(rLevels)]
	}
	for _, e := range rg.Edges() {
		if out.ResFreq[e[0]] == out.ResFreq[e[1]] {
			out.ResConflicts++
		}
	}
	return out
}

// workloadSizes picks circuit widths for a device: the largest Table I-style
// instance that fits, per workload kind.
func workloadSizes(qubits int) (bv, qaoa, qgan int) {
	clamp := func(want int) int {
		if qubits < want {
			return qubits
		}
		return want
	}
	return clamp(16), clamp(9), clamp(9)
}

// buildWorkloads generates benchmark circuits sized to the device, stored as
// explicit gate lists so a loaded suite never depends on generator code.
func buildWorkloads(norm Spec, devQubits int, rng *rand.Rand) []Workload {
	bvN, qaoaN, qganN := workloadSizes(devQubits)
	var out []Workload
	add := func(suffix string, c *circuit.Circuit) {
		w := Workload{Name: norm.Name + "/" + suffix, NumQubits: c.NumQubits}
		for _, g := range c.Gates {
			w.Gates = append(w.Gates, Gate{Name: g.Name, Qubits: append([]int(nil), g.Qubits...)})
		}
		out = append(out, w)
	}
	// Each builder has a minimum width; workloads that cannot fit the
	// device are omitted rather than padded.
	if bvN >= 2 {
		add("bv", circuit.BV(bvN))
	}
	if qaoaN >= 3 {
		add("qaoa", circuit.QAOA(qaoaN, norm.Seed+int64(rng.Intn(1<<16))))
	}
	if qganN >= 2 {
		add("qgan", circuit.QGAN(qganN, 2))
	}
	return out
}
