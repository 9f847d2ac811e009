// Package frequency implements the frequency assigner of §IV-A: it
// discretizes the available qubit and resonator spectra into levels separated
// by more than the detuning threshold Δc, colours the device so that
// interconnected components land on different levels (frequency-domain
// isolation), and builds the collision map — the precomputed list of
// near-resonant instance pairs the placement engine's frequency repulsive
// force iterates over (avoiding all-to-all interactions, §IV-C1).
//
// The spectra are narrow (§III-B "frequency crowding"): 4 usable qubit
// levels in 4.8–5.2 GHz and 8 resonator levels in 6.0–7.0 GHz at
// Δc = 0.1 GHz. Larger devices therefore must reuse levels on components
// that are not directly connected — exactly the residual resonance pairs
// that spatial isolation has to handle.
package frequency

import (
	"fmt"
	"math"

	"qplacer/internal/component"
	"qplacer/internal/graph"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

// Spectrum is a frequency band in GHz.
type Spectrum struct {
	Lo, Hi float64
}

// QubitSpectrum returns the paper's qubit band Ω = 4.8–5.2 GHz.
func QubitSpectrum() Spectrum {
	return Spectrum{physics.QubitFreqLoGHz, physics.QubitFreqHiGHz}
}

// ResonatorSpectrum returns the paper's resonator band Ω_r = 6.0–7.0 GHz.
func ResonatorSpectrum() Spectrum {
	return Spectrum{physics.ResFreqLoGHz, physics.ResFreqHiGHz}
}

// Levels discretizes the band into the maximum number of evenly spaced
// levels whose pairwise separation strictly exceeds deltaC·margin. margin
// (>1) keeps levels clear of the resonance threshold despite fabrication
// variation; 1.3 is the package default used by Assign.
func (s Spectrum) Levels(deltaC, margin float64) []float64 {
	if s.Hi <= s.Lo || deltaC <= 0 || margin <= 1 {
		panic(fmt.Sprintf("frequency: invalid spectrum/threshold %v %v %v", s, deltaC, margin))
	}
	span := s.Hi - s.Lo
	minSpacing := deltaC * margin
	n := int(math.Floor(span/minSpacing)) + 1
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = (s.Lo + s.Hi) / 2
		return out
	}
	step := span / float64(n-1)
	for i := range out {
		out[i] = s.Lo + float64(i)*step
	}
	return out
}

// Assignment holds the chosen frequencies.
type Assignment struct {
	QubitFreq   []float64 // per device qubit
	ResFreq     []float64 // per coupling edge (resonator)
	QubitLevels []float64
	ResLevels   []float64
	// QubitConflicts counts qubit pairs at hop distance ≤2 that had to share
	// a level because the spectrum ran out (frequency crowding).
	QubitConflicts int
	// ResConflicts is the analogous count for resonators sharing a qubit.
	ResConflicts int
}

// DefaultMargin is the spacing guard factor applied over Δc.
const DefaultMargin = 1.3

// levelAssign assigns one of len(levels) level indices to every vertex of
// hard (direct-isolation graph) while softly avoiding conflicts on soft
// (a supergraph of hard). Vertices are processed in decreasing-degree order
// of the hard graph (the DSATUR-style priority), and each takes the level
// with no hard conflict that minimizes soft conflicts. It returns the level
// index per vertex and the number of residual hard and soft conflicts.
func levelAssign(hard, soft *graph.Graph, nLevels int) (lv []int, hardConf, softConf int) {
	n := hard.N()
	lv = make([]int, n)
	for i := range lv {
		lv[i] = -1
	}
	// BFS order from the highest-degree vertex: parents are levelled before
	// their children, so a vertex never ends up hard-blocked on all levels
	// by its own already-coloured neighbours (max degree ≤ #levels here).
	root := 0
	for v := 1; v < n; v++ {
		if hard.Degree(v) > hard.Degree(root) {
			root = v
		}
	}
	order := hard.BFSFrom(root)
	if len(order) < n {
		seen := make([]bool, n)
		for _, v := range order {
			seen[v] = true
		}
		for v := 0; v < n; v++ {
			if !seen[v] {
				order = append(order, v)
			}
		}
	}
	cost := func(v, c int) int {
		total := 0
		for _, u := range hard.Neighbors(v) {
			if lv[u] == c {
				total += 1000
			}
		}
		for _, u := range soft.Neighbors(v) {
			if lv[u] == c {
				total++
			}
		}
		return total
	}
	pickBest := func(v int) int {
		bestLevel, bestCost := 0, math.MaxInt
		for c := 0; c < nLevels; c++ {
			if cc := cost(v, c); cc < bestCost {
				bestLevel, bestCost = c, cc
			}
		}
		return bestLevel
	}
	for _, v := range order {
		lv[v] = pickBest(v)
	}
	// Repair sweeps: re-level any vertex that still hard-conflicts.
	for sweep := 0; sweep < 10; sweep++ {
		fixedAny := false
		for _, v := range order {
			if cost(v, lv[v]) >= 1000 {
				if c := pickBest(v); c != lv[v] {
					lv[v] = c
					fixedAny = true
				}
			}
		}
		if !fixedAny {
			break
		}
	}
	for _, e := range hard.Edges() {
		if lv[e[0]] == lv[e[1]] {
			hardConf++
		}
	}
	for _, e := range soft.Edges() {
		if lv[e[0]] == lv[e[1]] && !hard.HasEdge(e[0], e[1]) {
			softConf++
		}
	}
	return lv, hardConf, softConf
}

// Assign chooses frequencies so that directly coupled qubits are always
// detuned (hard requirement for fixed-frequency operation) and distance-2
// qubit pairs are detuned whenever the 4 available levels permit. Resonators
// sharing a qubit are likewise detuned over the 8 resonator levels. Residual
// same-level pairs — the frequency crowding of §III-B — are reported in the
// conflict counters and become the job of spatial isolation.
func Assign(dev *topology.Device, deltaC float64) *Assignment {
	if deltaC <= 0 {
		deltaC = physics.DetuneThresholdGHz
	}
	qLevels := QubitSpectrum().Levels(deltaC, DefaultMargin)
	rLevels := ResonatorSpectrum().Levels(deltaC, DefaultMargin)

	out := &Assignment{
		QubitFreq:   make([]float64, dev.NumQubits),
		ResFreq:     make([]float64, dev.NumEdges()),
		QubitLevels: qLevels,
		ResLevels:   rLevels,
	}

	// Qubits: direct edges hard, distance-2 pairs soft.
	d2 := dev.Graph.Power(2)
	qlv, qHard, qSoft := levelAssign(dev.Graph, d2, len(qLevels))
	for q, c := range qlv {
		out.QubitFreq[q] = qLevels[c]
	}
	out.QubitConflicts = qHard*1000 + qSoft // hard conflicts should be zero

	// Resonators: the "share a qubit" graph is the hard constraint.
	edges := dev.Edges()
	rg := graph.New(max(len(edges), 1))
	byQubit := make(map[int][]int)
	for r, e := range edges {
		byQubit[e[0]] = append(byQubit[e[0]], r)
		byQubit[e[1]] = append(byQubit[e[1]], r)
	}
	// Deterministic iteration: adjacency-list order feeds the BFS used by
	// levelAssign, so ranging over the map directly would make assignments
	// vary run to run.
	for q := 0; q < dev.NumQubits; q++ {
		rs := byQubit[q]
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				rg.AddEdge(rs[i], rs[j])
			}
		}
	}
	rlv, rHard, _ := levelAssign(rg, rg, len(rLevels))
	for r := range edges {
		out.ResFreq[r] = rLevels[rlv[r]]
	}
	out.ResConflicts = rHard
	return out
}

// Resonant reports whether two frequencies are within the detuning
// threshold (the crosstalk indicator τ of Eq. 9).
func Resonant(f1, f2, deltaC float64) bool {
	return math.Abs(f1-f2) <= deltaC
}

// NearResonant is the collision-map pair rule (Eq. 9–10): a and b are the
// same kind — qubit and resonator bands never overlap within Δc, so pairs
// are always qubit–qubit or segment–segment — not two segments of one
// resonator (the Kronecker-delta factor of Eq. 10), and Resonant within
// deltaC.
func NearResonant(a, b *component.Instance, deltaC float64) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == component.KindSegment && a.Resonator == b.Resonator {
		return false
	}
	return Resonant(a.FreqGHz, b.FreqGHz, deltaC)
}

// GuardMM is the isolation distance (mm, Chebyshev between centres) that
// legalization tries to keep between near-resonant partners of an instance
// of the given kind, and the interaction radius of detailed placement's
// frequency-margin cost: 2.5 mm for qubits, 0.65 mm for resonator segments.
func GuardMM(kind component.Kind) float64 {
	if kind == component.KindQubit {
		return 2.5
	}
	return 0.65
}

// CollisionMap lists, per instance, the near-resonant partner instances the
// frequency force must repel (Eq. 9), excluding pairs from the same
// resonator (the Kronecker-delta factor of Eq. 10). It is the one place the
// pipeline works out which pairs are near-resonant: placement, both
// legalizers and the detailed placers all read it, and none mutates it.
type CollisionMap struct {
	DeltaC float64
	Pairs  [][2]int // i < j instance-ID pairs, ascending
	ByInst [][]int  // partner list per instance ID, ascending
}

// BuildCollisionMap scans the netlist for NearResonant instance pairs.
func BuildCollisionMap(nl *component.Netlist, deltaC float64) *CollisionMap {
	if deltaC <= 0 {
		deltaC = physics.DetuneThresholdGHz
	}
	cm := &CollisionMap{
		DeltaC: deltaC,
		ByInst: make([][]int, len(nl.Instances)),
	}
	n := len(nl.Instances)
	for i := 0; i < n; i++ {
		a := nl.Instances[i]
		for j := i + 1; j < n; j++ {
			if !NearResonant(a, nl.Instances[j], deltaC) {
				continue
			}
			cm.Pairs = append(cm.Pairs, [2]int{i, j})
			cm.ByInst[i] = append(cm.ByInst[i], j)
			cm.ByInst[j] = append(cm.ByInst[j], i)
		}
	}
	return cm
}
