// Package fidelity implements the program-fidelity estimator of Eq. 15:
//
//	F = Π_q (1−ε_q) · Π_g (1−ε_g) · Π_r (1−ε_r),
//
// combining intrinsic gate errors and decoherence (ε_q), qubit–qubit
// crosstalk from spatial violations (ε_g, Eq. 16 with the corrected sign),
// and resonator–resonator crosstalk (ε_r). Crosstalk couplings derive from
// the placed layout through the physics models: parasitic capacitance decays
// with the actual component separations, so a layout that keeps resonant
// components apart earns its fidelity. Only actively engaged components
// contribute (§V-C).
package fidelity

import (
	"math"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/mapper"
	"qplacer/internal/physics"
)

// Params collects the noise-model constants.
type Params struct {
	Err1Q, Err2Q float64
	T1Ns, T2Ns   float64
	Gate1QNs     float64
	Gate2QNs     float64
	DeltaCGHz    float64
	// CrosstalkRange bounds the neighbourhood scan (mm); components farther
	// apart contribute negligibly through the exponential Cp decay.
	CrosstalkRange float64
}

// DefaultParams returns the §V-C constants.
func DefaultParams() Params {
	return Params{
		Err1Q:          physics.Err1Q,
		Err2Q:          physics.Err2Q,
		T1Ns:           physics.T1Ns,
		T2Ns:           physics.T2Ns,
		Gate1QNs:       physics.Gate1QNs,
		Gate2QNs:       physics.Gate2QNs,
		DeltaCGHz:      physics.DetuneThresholdGHz,
		CrosstalkRange: 3.0,
	}
}

// Breakdown reports the three fidelity factors separately.
type Breakdown struct {
	F          float64 // total program fidelity
	FIntrinsic float64 // gates + decoherence (Π 1−ε_q)
	FQubitXT   float64 // qubit–qubit crosstalk (Π 1−ε_g)
	FResXT     float64 // resonator–resonator crosstalk (Π 1−ε_r)
}

// Estimate evaluates the mapping on the placed layout.
func Estimate(nl *component.Netlist, m *mapper.Mapping, p Params) Breakdown {
	bd := Breakdown{FIntrinsic: 1, FQubitXT: 1, FResXT: 1}

	// ε_q: intrinsic gate errors and decoherence over the circuit duration.
	for _, q := range m.ActiveQubits {
		eq := 1.0
		eq *= math.Pow(1-p.Err1Q, float64(m.Gates1Q[q]))
		eq *= math.Pow(1-p.Err2Q, float64(m.Gates2Q[q]))
		eq *= 1 - physics.DecoherenceError(m.DurationNs, p.T1Ns, p.T2Ns)
		bd.FIntrinsic *= eq
	}

	// ε_g: qubit–qubit crosstalk. For each active qubit, every near-resonant
	// qubit within range acts like a stray coupler; the worst-case Rabi
	// transfer accrues over the qubit's gate activity.
	activeSet := map[int]bool{}
	for _, q := range m.ActiveQubits {
		activeSet[q] = true
	}
	for _, q := range m.ActiveQubits {
		inQ := nl.Instances[nl.QubitInst[q]]
		exposure := float64(m.Gates2Q[q])*p.Gate2QNs + float64(m.Gates1Q[q])*p.Gate1QNs
		if exposure <= 0 {
			continue
		}
		for oq := 0; oq < len(nl.QubitInst); oq++ {
			if oq == q {
				continue
			}
			inO := nl.Instances[nl.QubitInst[oq]]
			if !frequency.Resonant(inQ.FreqGHz, inO.FreqGHz, p.DeltaCGHz) {
				continue
			}
			gap := inQ.CoreRect().Gap(inO.CoreRect())
			if gap > p.CrosstalkRange {
				continue
			}
			g := physics.QubitParasiticCouplingMHz(inQ.FreqGHz, inO.FreqGHz, math.Max(gap, 0))
			detMHz := math.Abs(inQ.FreqGHz-inO.FreqGHz) * 1e3
			gEff := physics.InteractionStrengthMHz(g, detMHz)
			eg := physics.TransitionProbability(gEff, exposure)
			bd.FQubitXT *= 1 - eg
		}
	}

	// ε_r: resonator–resonator crosstalk between active resonators whose
	// segment clusters run near each other; coupling scales with adjacency
	// length (§V-C).
	for i := 0; i < len(m.ActiveEdges); i++ {
		ri := resonatorByEdge(nl, m.ActiveEdges[i])
		if ri < 0 {
			continue
		}
		for j := 0; j < len(nl.Resonators); j++ {
			if j == ri {
				continue
			}
			ra, rb := nl.Resonators[ri], nl.Resonators[j]
			if !frequency.Resonant(ra.FreqGHz, rb.FreqGHz, p.DeltaCGHz) {
				continue
			}
			minGap, adjLen := resonatorProximity(nl, ra, rb, p.CrosstalkRange)
			if adjLen <= 0 {
				continue
			}
			g := physics.ResonatorParasiticCouplingMHz(ra.FreqGHz, rb.FreqGHz, minGap, adjLen)
			detMHz := math.Abs(ra.FreqGHz-rb.FreqGHz) * 1e3
			gEff := physics.InteractionStrengthMHz(g, detMHz)
			uses := m.EdgeUse[m.ActiveEdges[i]]
			er := physics.TransitionProbability(gEff, float64(uses)*p.Gate2QNs)
			bd.FResXT *= 1 - er
		}
	}

	bd.F = bd.FIntrinsic * bd.FQubitXT * bd.FResXT
	return bd
}

// resonatorByEdge finds the resonator serving a device coupling.
func resonatorByEdge(nl *component.Netlist, e [2]int) int {
	for i, r := range nl.Resonators {
		if (r.QubitA == e[0] && r.QubitB == e[1]) ||
			(r.QubitA == e[1] && r.QubitB == e[0]) {
			return i
		}
	}
	return -1
}

// resonatorProximity returns the minimum edge-to-edge gap between two
// resonators' wire blocks and the total adjacency length (segment side per
// close block pair within maxGap).
func resonatorProximity(nl *component.Netlist, ra, rb *component.Resonator, maxGap float64) (minGap, adjLen float64) {
	minGap = math.Inf(1)
	for _, sa := range ra.Segments {
		ia := nl.Instances[sa]
		ca := ia.CoreRect()
		for _, sb := range rb.Segments {
			ib := nl.Instances[sb]
			gap := ca.Gap(ib.CoreRect())
			if gap < minGap {
				minGap = gap
			}
			// Parallel-run adjacency only counts at near-contact gaps
			// (~0.12 mm); beyond that the exponential Cp decay makes the
			// contribution negligible.
			if gap <= 0.12 {
				adjLen += ia.W
			}
		}
	}
	if math.IsInf(minGap, 1) {
		return 0, 0
	}
	if minGap < 0 {
		minGap = 0
	}
	return minGap, adjLen
}
