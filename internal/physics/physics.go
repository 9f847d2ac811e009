// Package physics implements the superconducting-circuit models the paper's
// evaluation rests on (§II–III): transmon and resonator parameters, parasitic
// capacitive coupling (Eq. 6), effective (dispersive) coupling g²/Δ,
// resonator-induced-phase gate rate (Eq. 2), substrate box modes (§III-C),
// and the decoherence / crosstalk error models of the fidelity metric
// (Eq. 15–16).
//
// Unit conventions, chosen once and used everywhere:
//
//	frequency    GHz (ordinary frequency f = ω/2π)
//	coupling     MHz (g/2π, as quoted in the circuit-QED literature)
//	capacitance  fF
//	distance     mm
//	time         ns
package physics

import "math"

// Physical and device constants (§V-C of the paper unless noted).
const (
	// SpeedOfLight is c in mm/s.
	SpeedOfLight = 2.998e11
	// WaveSpeed is the phase velocity v0 on-chip in mm/s (≈1.3e8 m/s).
	WaveSpeed = 1.3e11
	// EpsSilicon is the relative permittivity of the silicon substrate.
	EpsSilicon = 11.7

	// QubitSizeMM is the transmon pocket edge length (400 µm).
	QubitSizeMM = 0.4
	// QubitPadMM is the qubit padding distance d_q (400 µm).
	QubitPadMM = 0.4
	// ResonatorPadMM is the resonator padding distance d_r (100 µm).
	ResonatorPadMM = 0.1
	// ResonatorWidthMM is the effective resonator ribbon width used for
	// area accounting (matches the Human-baseline formula D = L·d_r/(L_q+2d_q)).
	ResonatorWidthMM = 0.1

	// QubitFreqLoGHz..QubitFreqHiGHz is the available qubit spectrum Ω.
	QubitFreqLoGHz = 4.8
	QubitFreqHiGHz = 5.2
	// ResFreqLoGHz..ResFreqHiGHz is the available resonator spectrum Ω_r.
	ResFreqLoGHz = 6.0
	ResFreqHiGHz = 7.0
	// DetuneThresholdGHz is Δc: pairs closer than this in frequency are
	// treated as resonant (crosstalk-susceptible).
	DetuneThresholdGHz = 0.1

	// AnharmonicityMHz is α/2π ≈ −310 MHz for the fixed-frequency transmons.
	AnharmonicityMHz = -310

	// QubitCapFF is the transmon shunt capacitance C_q.
	QubitCapFF = 70
	// ResonatorCapFF is the lumped-equivalent capacitance of a λ/2 CPW
	// resonator (~1.6 pF for ~10 mm of line).
	ResonatorCapFF = 1600

	// T1Ns and T2Ns are the relaxation and dephasing times (100 µs / 80 µs).
	T1Ns = 100_000
	T2Ns = 80_000

	// Gate1QNs and Gate2QNs are single-qubit and RIP two-qubit gate
	// durations.
	Gate1QNs = 35
	Gate2QNs = 250

	// Err1Q and Err2Q are the intrinsic (non-crosstalk) gate error rates.
	Err1Q = 3e-4
	Err2Q = 8e-3

	// EngineeredCouplingMHz is the intentional qubit–qubit coupling g
	// quoted in §III-A (20–30 MHz); used for the Fig. 4 sweep.
	EngineeredCouplingMHz = 25
)

// ResonatorLengthMM returns the half-wave resonator length L = v0/(2f) in mm
// for a resonance frequency in GHz (Eq. in §V-C).
func ResonatorLengthMM(fGHz float64) float64 {
	if fGHz <= 0 {
		panic("physics: non-positive frequency")
	}
	return WaveSpeed / (2 * fGHz * 1e9)
}

// ParasiticCapQubitFF models the stray capacitance between two transmon
// pockets separated edge-to-edge by d mm. The exponential form and its
// constants are calibrated against the finite-difference extractor in
// package emsim (the stand-in for the paper's Qiskit Metal simulation,
// Fig. 5b): sub-fF at typical padding distances, a few fF at near contact.
func ParasiticCapQubitFF(dMM float64) float64 {
	if dMM < 0 {
		dMM = 0
	}
	const (
		c0    = 2.0  // fF at contact
		decay = 0.22 // mm
	)
	return c0 * math.Exp(-dMM/decay)
}

// ParasiticCapResonatorFF models the stray capacitance between two resonator
// ribbons at edge-to-edge distance d mm running parallel over adjLen mm
// ("the parasitic capacitance depends on the adjacent length", §V-C).
func ParasiticCapResonatorFF(dMM, adjLenMM float64) float64 {
	if dMM < 0 {
		dMM = 0
	}
	if adjLenMM < 0 {
		adjLenMM = 0
	}
	const (
		cPerLen = 1.5  // fF per mm of adjacency at contact
		decay   = 0.15 // mm
	)
	return cPerLen * adjLenMM * math.Exp(-dMM/decay)
}

// CouplingFromCapMHz implements Eq. 6:
//
//	g = ½·√(ω1·ω2) · Cp / √((C1+Cp)(C2+Cp)),
//
// with frequencies in GHz and capacitances in fF, returning g in MHz.
func CouplingFromCapMHz(f1GHz, f2GHz, cpFF, c1FF, c2FF float64) float64 {
	if cpFF <= 0 {
		return 0
	}
	gGHz := 0.5 * math.Sqrt(f1GHz*f2GHz) * cpFF /
		math.Sqrt((c1FF+cpFF)*(c2FF+cpFF))
	return gGHz * 1e3
}

// QubitParasiticCouplingMHz composes the distance model with Eq. 6 for two
// qubits at frequencies f1, f2 separated edge-to-edge by d mm.
func QubitParasiticCouplingMHz(f1GHz, f2GHz, dMM float64) float64 {
	cp := ParasiticCapQubitFF(dMM)
	return CouplingFromCapMHz(f1GHz, f2GHz, cp, QubitCapFF, QubitCapFF)
}

// ResonatorParasiticCouplingMHz is the resonator–resonator analogue.
func ResonatorParasiticCouplingMHz(f1GHz, f2GHz, dMM, adjLenMM float64) float64 {
	cp := ParasiticCapResonatorFF(dMM, adjLenMM)
	return CouplingFromCapMHz(f1GHz, f2GHz, cp, ResonatorCapFF, ResonatorCapFF)
}

// EffectiveCouplingMHz returns the dispersive (residual) coupling
// g_eff = g²/Δ of Eq. 5, with g in MHz and the detuning Δ in MHz.
// A zero detuning returns g itself (the resonant limit).
func EffectiveCouplingMHz(gMHz, detuningMHz float64) float64 {
	d := math.Abs(detuningMHz)
	if d == 0 {
		return math.Abs(gMHz)
	}
	return gMHz * gMHz / d
}

// InteractionStrengthMHz interpolates smoothly between the resonant limit
// (g at Δ = 0) and the dispersive limit (g²/Δ for Δ ≫ g):
//
//	g_int = g² / √(g² + Δ²).
//
// This is the curve of Fig. 4 and the strength used by the noise model.
func InteractionStrengthMHz(gMHz, detuningMHz float64) float64 {
	g := math.Abs(gMHz)
	if g == 0 {
		return 0
	}
	d := detuningMHz
	return g * g / math.Sqrt(g*g+d*d)
}

// TM110GHz returns the first spurious box-mode frequency of an a×b mm
// substrate with relative permittivity epsR (§III-C):
//
//	f = c/(2√εr) · √((1/a)² + (1/b)²).
//
// For εr = 11.7 this gives 12.4 GHz at 5×5 mm² and 6.2 GHz at 10×10 mm²,
// matching the values quoted in the paper.
func TM110GHz(aMM, bMM, epsR float64) float64 {
	if aMM <= 0 || bMM <= 0 || epsR <= 0 {
		panic("physics: invalid box-mode arguments")
	}
	return SpeedOfLight / (2 * math.Sqrt(epsR)) *
		math.Hypot(1/aMM, 1/bMM) / 1e9
}

// TransitionProbability returns the Rabi-style worst-case population
// transfer sin²(2π·g_eff·t) for coupling g_eff (MHz) acting over t (ns),
// with the phase capped at π/2 so the error saturates at 1 and stays
// monotone in g_eff·t. This is Eq. 16 with the sign typo corrected
// (the paper's Pr[t] = sin²(g_eff·t)).
func TransitionProbability(gEffMHz, tNs float64) float64 {
	phase := 2 * math.Pi * math.Abs(gEffMHz) * 1e-3 * tNs // MHz·ns → rad
	if phase > math.Pi/2 {
		phase = math.Pi / 2
	}
	s := math.Sin(phase)
	return s * s
}

// DecoherenceError returns the probability of a decoherence event for a
// qubit exposed for t ns with the given T1/T2 (ns):
// ε = 1 − exp(−t·(1/2T1 + 1/2T2)).
func DecoherenceError(tNs, t1Ns, t2Ns float64) float64 {
	if tNs <= 0 {
		return 0
	}
	rate := 0.5/t1Ns + 0.5/t2Ns
	return 1 - math.Exp(-tNs*rate)
}
