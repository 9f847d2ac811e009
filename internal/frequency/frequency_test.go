package frequency

import (
	"math"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

func TestLevelsSpacingExceedsThreshold(t *testing.T) {
	q := QubitSpectrum().Levels(0.1, DefaultMargin)
	if len(q) != 4 {
		t.Fatalf("qubit levels = %d, want 4 (span 0.4 GHz, Δc·margin = 0.13)", len(q))
	}
	for i := 1; i < len(q); i++ {
		if q[i]-q[i-1] <= 0.1 {
			t.Fatalf("qubit level spacing %v ≤ Δc", q[i]-q[i-1])
		}
	}
	r := ResonatorSpectrum().Levels(0.1, DefaultMargin)
	if len(r) != 8 {
		t.Fatalf("resonator levels = %d, want 8", len(r))
	}
	// Levels span the full band.
	if q[0] != 4.8 || q[len(q)-1] != 5.2 || r[0] != 6.0 || r[len(r)-1] != 7.0 {
		t.Fatalf("levels must span the band: %v %v", q, r)
	}
}

func TestLevelsSingle(t *testing.T) {
	s := Spectrum{5.0, 5.05}
	got := s.Levels(0.1, 1.3)
	if len(got) != 1 || math.Abs(got[0]-5.025) > 1e-12 {
		t.Fatalf("narrow band levels = %v", got)
	}
}

func TestLevelsPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { (Spectrum{5, 4}).Levels(0.1, 1.3) },
		func() { (Spectrum{4, 5}).Levels(0, 1.3) },
		func() { (Spectrum{4, 5}).Levels(0.1, 1.0) },
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

func TestAssignIsolatesConnectedComponents(t *testing.T) {
	for _, dev := range topology.All() {
		a := Assign(dev, physics.DetuneThresholdGHz)
		// Directly coupled qubits must never be resonant.
		for _, e := range dev.Edges() {
			if Resonant(a.QubitFreq[e[0]], a.QubitFreq[e[1]], physics.DetuneThresholdGHz) {
				t.Errorf("%s: coupled qubits %v share a resonant frequency", dev.Name, e)
			}
		}
		// All frequencies inside the bands.
		for q, f := range a.QubitFreq {
			if f < physics.QubitFreqLoGHz-1e-9 || f > physics.QubitFreqHiGHz+1e-9 {
				t.Errorf("%s: qubit %d frequency %v outside band", dev.Name, q, f)
			}
		}
		for r, f := range a.ResFreq {
			if f < physics.ResFreqLoGHz-1e-9 || f > physics.ResFreqHiGHz+1e-9 {
				t.Errorf("%s: resonator %d frequency %v outside band", dev.Name, r, f)
			}
		}
	}
}

func TestAssignResonatorsSharingQubitDetuned(t *testing.T) {
	// Heavy-hex degree ≤ 3 means ≤ 3 resonators share a qubit; 8 levels are
	// plenty, so there must be zero resonator conflicts on Falcon/Eagle.
	for _, dev := range []*topology.Device{topology.Falcon27(), topology.Eagle127()} {
		a := Assign(dev, physics.DetuneThresholdGHz)
		if a.ResConflicts != 0 {
			t.Errorf("%s: %d resonator conflicts, want 0", dev.Name, a.ResConflicts)
		}
		edges := dev.Edges()
		for q := 0; q < dev.NumQubits; q++ {
			var fs []float64
			for r, e := range edges {
				if e[0] == q || e[1] == q {
					fs = append(fs, a.ResFreq[r])
				}
			}
			for i := 0; i < len(fs); i++ {
				for j := i + 1; j < len(fs); j++ {
					if Resonant(fs[i], fs[j], physics.DetuneThresholdGHz) {
						t.Errorf("%s: resonators at qubit %d resonate", dev.Name, q)
					}
				}
			}
		}
	}
}

func TestAssignFrequencyCrowdingGrowsWithDevice(t *testing.T) {
	// Only 4 qubit levels exist, so distance-2 conflicts are unavoidable on
	// every real topology; larger devices must reuse levels more.
	small := Assign(topology.Grid25(), 0.1)
	large := Assign(topology.Eagle127(), 0.1)
	if small.QubitConflicts == 0 {
		t.Log("grid has no distance-2 crowding (tight but possible)")
	}
	// Level reuse count: qubits per level must be ≫ 1 on Eagle.
	counts := map[float64]int{}
	for _, f := range large.QubitFreq {
		counts[f]++
	}
	if len(counts) > 4 {
		t.Fatalf("eagle uses %d distinct qubit levels, max is 4", len(counts))
	}
	for f, c := range counts {
		if c < 10 {
			t.Errorf("eagle level %v used only %d times — implausible", f, c)
		}
	}
	_ = small
}

func buildNetlist(t *testing.T, dev *topology.Device) (*component.Netlist, *Assignment) {
	t.Helper()
	a := Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return nl, a
}

func TestCollisionMapExcludesSameResonator(t *testing.T) {
	nl, _ := buildNetlist(t, topology.Grid25())
	cm := BuildCollisionMap(nl, physics.DetuneThresholdGHz)
	for _, p := range cm.Pairs {
		a, b := nl.Instances[p[0]], nl.Instances[p[1]]
		if a.Kind == component.KindSegment && b.Kind == component.KindSegment &&
			a.Resonator == b.Resonator {
			t.Fatalf("pair %v from the same resonator", p)
		}
		if a.Kind != b.Kind {
			t.Fatalf("cross-kind pair %v cannot be resonant", p)
		}
		if !Resonant(a.FreqGHz, b.FreqGHz, cm.DeltaC) {
			t.Fatalf("non-resonant pair %v in map", p)
		}
	}
}

func TestCollisionMapSymmetricIndex(t *testing.T) {
	nl, _ := buildNetlist(t, topology.Falcon27())
	cm := BuildCollisionMap(nl, physics.DetuneThresholdGHz)
	count := 0
	for i, partners := range cm.ByInst {
		for _, j := range partners {
			found := false
			for _, k := range cm.ByInst[j] {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric collision entry (%d, %d)", i, j)
			}
			count++
		}
	}
	if count != 2*len(cm.Pairs) {
		t.Fatalf("ByInst entries = %d, want 2×%d", count, len(cm.Pairs))
	}
}

func TestCollisionMapNonEmptyOnRealDevices(t *testing.T) {
	// Level reuse guarantees collision pairs on every Table I device.
	for _, dev := range topology.All() {
		nl, _ := buildNetlist(t, dev)
		cm := BuildCollisionMap(nl, physics.DetuneThresholdGHz)
		if len(cm.Pairs) == 0 {
			t.Errorf("%s: empty collision map — frequency crowding missing", dev.Name)
		}
	}
}

func TestCollisionMapDefaultThreshold(t *testing.T) {
	nl, _ := buildNetlist(t, topology.Grid25())
	cm := BuildCollisionMap(nl, 0)
	if cm.DeltaC != physics.DetuneThresholdGHz {
		t.Fatalf("default Δc = %v", cm.DeltaC)
	}
}

func TestResonant(t *testing.T) {
	if !Resonant(5.0, 5.1, 0.1) {
		t.Error("Δ = 0.1 must count as resonant (τ ≤ Δc)")
	}
	if Resonant(5.0, 5.11, 0.1) {
		t.Error("Δ = 0.11 must not be resonant")
	}
	if !Resonant(5.1, 5.0, 0.1) {
		t.Error("must be symmetric")
	}
}
