package physics

import (
	"math"
	"testing"
	"testing/quick"
)

func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

func TestResonatorLengthMatchesPaperRange(t *testing.T) {
	// §V-C: resonator lengths 10.8–9.2 mm for 6.0–7.0 GHz.
	l6 := ResonatorLengthMM(6.0)
	l7 := ResonatorLengthMM(7.0)
	if !near(l6, 10.83, 0.01) {
		t.Errorf("L(6 GHz) = %v, want ≈10.83", l6)
	}
	if !near(l7, 9.29, 0.01) {
		t.Errorf("L(7 GHz) = %v, want ≈9.29", l7)
	}
}

func TestResonatorLengthPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { ResonatorLengthMM(0) },
		func() { ResonatorLengthMM(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestParasiticCapDecreasesWithDistance(t *testing.T) {
	prev := math.Inf(1)
	for d := 0.0; d <= 2.0; d += 0.1 {
		c := ParasiticCapQubitFF(d)
		if c <= 0 || c >= prev {
			t.Fatalf("Cp(%v) = %v not strictly decreasing (prev %v)", d, c, prev)
		}
		prev = c
	}
	// Negative distances clamp to contact value.
	if ParasiticCapQubitFF(-1) != ParasiticCapQubitFF(0) {
		t.Error("negative distance should clamp")
	}
}

func TestParasiticCapMagnitudes(t *testing.T) {
	// Near contact: ~fF scale (strong crosstalk); at 2 mm: negligible.
	if c := ParasiticCapQubitFF(0.1); c < 0.5 || c > 5 {
		t.Errorf("Cp(0.1mm) = %v fF, want O(1) fF", c)
	}
	if c := ParasiticCapQubitFF(2.0); c > 0.01 {
		t.Errorf("Cp(2mm) = %v fF, want negligible", c)
	}
}

func TestEngineeredCouplingScale(t *testing.T) {
	// §III-A: an intentional coupler gives g ≈ 20–30 MHz. With Eq. 6 and
	// C_q = 70 fF that corresponds to Cp ≈ 0.5–0.9 fF.
	g := CouplingFromCapMHz(5.0, 5.0, 0.7, QubitCapFF, QubitCapFF)
	if g < 20 || g > 30 {
		t.Errorf("g(0.7 fF) = %v MHz, want 20–30", g)
	}
}

func TestCouplingFromCapEdgeCases(t *testing.T) {
	if g := CouplingFromCapMHz(5, 5, 0, 70, 70); g != 0 {
		t.Errorf("zero Cp should give zero coupling, got %v", g)
	}
	// Monotone in Cp.
	if CouplingFromCapMHz(5, 5, 0.2, 70, 70) >= CouplingFromCapMHz(5, 5, 0.5, 70, 70) {
		t.Error("coupling must grow with Cp")
	}
}

func TestEffectiveCoupling(t *testing.T) {
	if g := EffectiveCouplingMHz(25, 0); g != 25 {
		t.Errorf("resonant limit = %v, want 25", g)
	}
	if g := EffectiveCouplingMHz(25, 250); !near(g, 2.5, 1e-12) {
		t.Errorf("g_eff = %v, want 2.5", g)
	}
	if g := EffectiveCouplingMHz(25, -250); !near(g, 2.5, 1e-12) {
		t.Errorf("negative detuning must use |Δ|: %v", g)
	}
}

func TestInteractionStrengthLimits(t *testing.T) {
	// Peak at resonance equals g (Fig. 4).
	if g := InteractionStrengthMHz(25, 0); !near(g, 25, 1e-12) {
		t.Errorf("peak = %v", g)
	}
	// Far detuned: ≈ g²/Δ.
	got := InteractionStrengthMHz(25, 1000)
	want := 25.0 * 25 / 1000
	if !near(got, want, 0.01) {
		t.Errorf("dispersive limit = %v, want ≈%v", got, want)
	}
	// Symmetric in detuning sign, monotone decreasing in |Δ|.
	if InteractionStrengthMHz(25, 100) != InteractionStrengthMHz(25, -100) {
		t.Error("must be symmetric in detuning")
	}
	if InteractionStrengthMHz(25, 50) <= InteractionStrengthMHz(25, 150) {
		t.Error("must decay with detuning")
	}
	if g := InteractionStrengthMHz(0, 50); g != 0 {
		t.Errorf("zero g must give 0, got %v", g)
	}
}

func TestTM110MatchesPaperNumbers(t *testing.T) {
	// §III-C: TM110 drops from 12.41 GHz (5×5 mm²) to 6.20 GHz (10×10 mm²).
	f5 := TM110GHz(5, 5, EpsSilicon)
	f10 := TM110GHz(10, 10, EpsSilicon)
	if !near(f5, 12.41, 0.005) {
		t.Errorf("TM110(5×5) = %v, want ≈12.41", f5)
	}
	if !near(f10, 6.20, 0.005) {
		t.Errorf("TM110(10×10) = %v, want ≈6.20", f10)
	}
	// Doubling both sides halves the frequency exactly.
	if !near(f5/f10, 2, 1e-9) {
		t.Errorf("scaling ratio = %v", f5/f10)
	}
}

func TestTransitionProbability(t *testing.T) {
	if p := TransitionProbability(0, 1000); p != 0 {
		t.Errorf("zero coupling error = %v", p)
	}
	// Small phase: ε ≈ (2π·g·t·1e-3)².
	p := TransitionProbability(0.01, 100)
	want := math.Pow(2*math.Pi*0.01*1e-3*100, 2)
	if !near(p, want, 0.01) {
		t.Errorf("small-phase ε = %v, want ≈%v", p, want)
	}
	// Saturates at 1, monotone in g.
	if p := TransitionProbability(100, 1e6); p != 1 {
		t.Errorf("saturated ε = %v, want 1", p)
	}
	if TransitionProbability(1, 100) >= TransitionProbability(5, 100) {
		t.Error("ε must grow with coupling before saturation")
	}
}

func TestDecoherenceError(t *testing.T) {
	if e := DecoherenceError(0, T1Ns, T2Ns); e != 0 {
		t.Errorf("zero-time decoherence = %v", e)
	}
	if e := DecoherenceError(-5, T1Ns, T2Ns); e != 0 {
		t.Errorf("negative-time decoherence = %v", e)
	}
	// 1 µs against 100 µs/80 µs: about 1.1%.
	e := DecoherenceError(1000, T1Ns, T2Ns)
	if e < 0.005 || e > 0.03 {
		t.Errorf("ε(1µs) = %v, want ≈1%%", e)
	}
	// Monotone in exposure.
	if DecoherenceError(100, T1Ns, T2Ns) >= DecoherenceError(10000, T1Ns, T2Ns) {
		t.Error("decoherence must grow with time")
	}
}

// Property: parasitic qubit coupling is symmetric in the two frequencies
// and decays with distance.
func TestQuickQubitCouplingProperties(t *testing.T) {
	f := func(a, b, d float64) bool {
		f1 := 4.8 + math.Mod(math.Abs(a), 0.4)
		f2 := 4.8 + math.Mod(math.Abs(b), 0.4)
		dist := math.Mod(math.Abs(d), 3)
		g12 := QubitParasiticCouplingMHz(f1, f2, dist)
		g21 := QubitParasiticCouplingMHz(f2, f1, dist)
		if math.Abs(g12-g21) > 1e-12 {
			return false
		}
		return QubitParasiticCouplingMHz(f1, f2, dist) >=
			QubitParasiticCouplingMHz(f1, f2, dist+0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: resonator coupling scales linearly with adjacency length.
func TestQuickResonatorCouplingAdjacency(t *testing.T) {
	f := func(l float64) bool {
		adj := 0.1 + math.Mod(math.Abs(l), 5)
		c1 := ParasiticCapResonatorFF(0.2, adj)
		c2 := ParasiticCapResonatorFF(0.2, 2*adj)
		return near(c2, 2*c1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
