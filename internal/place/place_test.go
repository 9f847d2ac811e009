package place

import (
	"context"
	"math"
	"testing"
	"time"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

func buildProblem(t *testing.T, dev *topology.Device) (*component.Netlist, *frequency.CollisionMap) {
	t.Helper()
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm := frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
	return nl, cm
}

// placeProblem builds the netlist + collision map for a named topology.
func placeProblem(tb testing.TB, topo string) (*component.Netlist, *frequency.CollisionMap) {
	tb.Helper()
	dev, err := topology.ByName(topo)
	if err != nil {
		tb.Fatal(err)
	}
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return nl, frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
}

// BenchmarkGradient times one full gradient evaluation (all components +
// combine) on the falcon problem.
func BenchmarkGradient(b *testing.B) {
	nl, cm := placeProblem(b, "falcon")
	e := newEngine(nl, cm, DefaultConfig())
	x := nl.Positions()
	grad := make([]float64, len(x))
	e.gradient(x, grad) // warm scratch and solver state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.gradient(x, grad)
	}
}

func fastConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	// Long enough for the frequency-pressure ramp (caps near iteration
	// ~90 at the default growth rate) to act after density spreads.
	cfg.MaxIters = 300
	return cfg
}

func TestPlaceGridConverges(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	res, err := PlaceCtx(context.Background(), nl, cm, fastConfig(ModeQplacer))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.HPWL <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// Overflow must have come down to a spread-out state.
	if res.Overflow > 0.35 {
		t.Fatalf("overflow %v too high — density force not working", res.Overflow)
	}
	// All instances inside the region.
	for _, in := range nl.Instances {
		if !res.Region.Contains(in.Pos) {
			t.Fatalf("instance %d at %v escaped region %v", in.ID, in.Pos, res.Region)
		}
	}
}

func TestFrequencyForceSeparatesResonantPairs(t *testing.T) {
	// The headline property: with the frequency force on, near-resonant
	// pairs end up significantly farther apart than under Classic with
	// identical hyperparameters.
	devs := []*topology.Device{topology.Grid25(), topology.Falcon27()}
	for _, dev := range devs {
		nlQ, cm := buildProblem(t, dev)
		nlC := nlQ.Clone()
		if _, err := PlaceCtx(context.Background(), nlQ, cm, fastConfig(ModeQplacer)); err != nil {
			t.Fatal(err)
		}
		if _, err := PlaceCtx(context.Background(), nlC, nil, fastConfig(ModeClassic)); err != nil {
			t.Fatal(err)
		}
		minResDist := func(nl *component.Netlist) float64 {
			min := math.Inf(1)
			for i, j := range cm.AllPairs() {
				a, b := nl.Instances[i], nl.Instances[j]
				if a.Kind != component.KindQubit {
					continue // qubit pairs are the strongest signal
				}
				if d := a.Pos.Dist(b.Pos); d < min {
					min = d
				}
			}
			return min
		}
		dQ := minResDist(nlQ)
		dC := minResDist(nlC)
		if dQ <= dC {
			t.Errorf("%s: Qplacer min resonant-qubit distance %.3f ≤ Classic %.3f",
				dev.Name, dQ, dC)
		}
	}
}

func TestClassicIgnoresCollisionMap(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	nl2 := nl.Clone()
	cfg := fastConfig(ModeClassic)
	if _, err := PlaceCtx(context.Background(), nl, cm, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceCtx(context.Background(), nl2, nil, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range nl.Instances {
		if nl.Instances[i].Pos != nl2.Instances[i].Pos {
			t.Fatal("classic placement must not depend on the collision map")
		}
	}
}

func TestPlaceIsDeterministic(t *testing.T) {
	nlA, cmA := buildProblem(t, topology.Grid25())
	nlB, cmB := buildProblem(t, topology.Grid25())
	cfg := fastConfig(ModeQplacer)
	if _, err := PlaceCtx(context.Background(), nlA, cmA, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceCtx(context.Background(), nlB, cmB, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range nlA.Instances {
		if nlA.Instances[i].Pos != nlB.Instances[i].Pos {
			t.Fatalf("instance %d differs across identical runs", i)
		}
	}
}

func TestPlaceValidation(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	bad := DefaultConfig()
	bad.MaxIters = 0
	if _, err := PlaceCtx(context.Background(), nl, cm, bad); err == nil {
		t.Error("zero MaxIters must fail")
	}
	if _, err := PlaceCtx(context.Background(), nl, nil, DefaultConfig()); err == nil {
		t.Error("Qplacer mode without a collision map must fail")
	}
}

func TestHPWLAgainstManual(t *testing.T) {
	nl, _ := buildProblem(t, topology.Grid25())
	for i, in := range nl.Instances {
		in.Pos = geom.Point{X: float64(i), Y: 0}
	}
	var want float64
	for _, n := range nl.Nets {
		want += math.Abs(float64(n[0]) - float64(n[1]))
	}
	if got := HPWL(nl); math.Abs(got-want) > 1e-9 {
		t.Fatalf("HPWL = %v, want %v", got, want)
	}
}

func TestChargeAreaModel(t *testing.T) {
	q := &component.Instance{Kind: component.KindQubit, W: 0.4, H: 0.4, Pad: 0.4}
	w, h := chargeArea(q)
	if math.Abs(w-1.2) > 1e-12 || math.Abs(h-1.2) > 1e-12 {
		t.Fatalf("qubit charge dims %v×%v, want 1.2×1.2", w, h)
	}
	s := &component.Instance{Kind: component.KindSegment, W: 0.3, H: 0.3, Pad: 0.1}
	w, h = chargeArea(s)
	if math.Abs(w-0.4) > 1e-12 || math.Abs(h-0.4) > 1e-12 {
		t.Fatalf("segment charge dims %v×%v, want 0.4×0.4 (half padded)", w, h)
	}
}

func TestRegionScalesWithDevice(t *testing.T) {
	small, cmS := buildProblem(t, topology.Grid25())
	large, cmL := buildProblem(t, topology.AspenM())
	cfg := fastConfig(ModeQplacer)
	cfg.MaxIters = 40
	rS, err := PlaceCtx(context.Background(), small, cmS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rL, err := PlaceCtx(context.Background(), large, cmL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rL.Region.Area() <= rS.Region.Area() {
		t.Fatal("larger device must get a larger region")
	}
}

func TestPlaceHumanGeometry(t *testing.T) {
	nl, _ := buildProblem(t, topology.Grid25())
	res := PlaceHuman(nl)
	// Pitch = padded qubit + L·d_r/(L_q+2d_q); with L ≈ 10.2 mm this is
	// ≈ 1.2 + 0.85 ≈ 2.05 mm.
	if res.PitchX < 1.9 || res.PitchX > 2.2 {
		t.Fatalf("human pitch = %v, want ≈2.0 mm", res.PitchX)
	}
	// Grid qubits at unit coords: neighbours exactly one pitch apart.
	q0 := nl.Instances[nl.QubitInst[0]].Pos
	q1 := nl.Instances[nl.QubitInst[1]].Pos
	if math.Abs(q1.Dist(q0)-res.PitchX) > 1e-9 {
		t.Fatalf("neighbour distance %v != pitch %v", q1.Dist(q0), res.PitchX)
	}
	// No two padded qubits overlap.
	for i := 0; i < len(nl.QubitInst); i++ {
		for j := i + 1; j < len(nl.QubitInst); j++ {
			a := nl.Instances[nl.QubitInst[i]].PaddedRect()
			b := nl.Instances[nl.QubitInst[j]].PaddedRect()
			if a.Overlaps(b) {
				t.Fatalf("human layout: padded qubits %d and %d overlap", i, j)
			}
		}
	}
	if res.Region.Area() <= 0 {
		t.Fatal("degenerate human region")
	}
}

func TestHumanLargerThanPlacedRegion(t *testing.T) {
	// The human layout must need substantially more area than the
	// electrostatic placement region (Fig. 13: ≈2× on average).
	nl, cm := buildProblem(t, topology.Falcon27())
	nlH := nl.Clone()
	pres, err := PlaceCtx(context.Background(), nl, cm, fastConfig(ModeQplacer))
	if err != nil {
		t.Fatal(err)
	}
	hres := PlaceHuman(nlH)
	ratio := hres.Region.Area() / pres.Region.Area()
	if ratio < 1.2 {
		t.Fatalf("human/qplacer area ratio = %.2f, want > 1.2", ratio)
	}
}

func TestTotalChargeArea(t *testing.T) {
	nl, _ := buildProblem(t, topology.Grid25())
	got := TotalChargeArea(nl)
	var want float64
	for _, in := range nl.Instances {
		w, h := chargeArea(in)
		want += w * h
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalChargeArea = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Fatal("charge area must be positive")
	}
}

// TestAvgIterMSKeepsFractions pins the per-iteration time to the
// full-precision runtime: truncating to whole milliseconds before dividing
// would report 0 for every sub-millisecond iteration.
func TestAvgIterMSKeepsFractions(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	cfg := DefaultConfig()
	cfg.MaxIters = 3
	res, err := PlaceCtx(context.Background(), nl, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.Runtime) / float64(time.Millisecond) / float64(res.Iterations)
	if res.AvgIterMS != want {
		t.Fatalf("AvgIterMS = %v, want %v (Runtime %v over %d iterations)", res.AvgIterMS, want, res.Runtime, res.Iterations)
	}
}
