package metrics

import (
	"context"
	"math"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/legal"
	"qplacer/internal/physics"
	"qplacer/internal/place"
	"qplacer/internal/topology"
)

func netlist(t *testing.T) *component.Netlist {
	t.Helper()
	dev := topology.Grid25()
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// spread places all instances far apart so no hotspots exist.
func spread(nl *component.Netlist) {
	for i, in := range nl.Instances {
		in.Pos = geom.Point{X: float64(i%30) * 5, Y: float64(i/30) * 5}
	}
}

func TestMeasureNoViolationsWhenSpread(t *testing.T) {
	nl := netlist(t)
	spread(nl)
	rep := Measure(nl, physics.DetuneThresholdGHz)
	if rep.Ph != 0 || len(rep.Violations) != 0 || len(rep.ImpactedQubits) != 0 {
		t.Fatalf("spread layout must have no hotspots: %+v", rep)
	}
	if rep.Amer <= 0 || rep.Apoly <= 0 || rep.Utilization <= 0 {
		t.Fatalf("degenerate areas: %+v", rep)
	}
}

func TestMeasureDetectsStackedResonantQubits(t *testing.T) {
	nl := netlist(t)
	spread(nl)
	// Find two resonant qubits and stack them.
	var qa, qb *component.Instance
	for i := 0; i < len(nl.QubitInst) && qb == nil; i++ {
		for j := i + 1; j < len(nl.QubitInst); j++ {
			a := nl.Instances[nl.QubitInst[i]]
			b := nl.Instances[nl.QubitInst[j]]
			if frequency.Resonant(a.FreqGHz, b.FreqGHz, 0.1) {
				qa, qb = a, b
				break
			}
		}
	}
	if qb == nil {
		t.Skip("no resonant qubit pair on this assignment")
	}
	qb.Pos = qa.Pos.Add(geom.Point{X: 0.5})
	rep := Measure(nl, physics.DetuneThresholdGHz)
	if rep.Ph <= 0 || len(rep.Violations) == 0 {
		t.Fatal("stacked resonant qubits must register as a hotspot")
	}
	if len(rep.ImpactedQubits) != 2 {
		t.Fatalf("impacted qubits = %v, want the two stacked ones", rep.ImpactedQubits)
	}
}

func TestMeasureIgnoresSameResonatorOverlap(t *testing.T) {
	nl := netlist(t)
	spread(nl)
	segs := nl.Resonators[0].Segments
	base := nl.Instances[segs[0]].Pos
	for k, sid := range segs {
		nl.Instances[sid].Pos = base.Add(geom.Point{X: float64(k) * 0.01})
	}
	rep := Measure(nl, physics.DetuneThresholdGHz)
	for _, v := range rep.Violations {
		a, b := nl.Instances[v.A], nl.Instances[v.B]
		if a.Kind == component.KindSegment && b.Kind == component.KindSegment &&
			a.Resonator == b.Resonator {
			t.Fatal("same-resonator overlap must not count (Eq. 10)")
		}
	}
}

func TestMinResonantDistance(t *testing.T) {
	nl := netlist(t)
	spread(nl)
	d := MinResonantDistance(nl, component.KindQubit, physics.DetuneThresholdGHz)
	if math.IsInf(d, 1) {
		t.Skip("no resonant qubit pairs")
	}
	if d < 5 {
		t.Fatalf("spread layout min resonant distance = %v", d)
	}
}

func TestEnclosingRect(t *testing.T) {
	nl := netlist(t)
	spread(nl)
	enc, ok := EnclosingRect(nl)
	if !ok || enc.Area() <= 0 {
		t.Fatal("degenerate enclosing rect")
	}
}

// legalized returns devName placed in mode and legalized by the shelf
// legalizer with the matching frequency awareness.
func legalized(t *testing.T, devName string, mode place.Mode) *component.Netlist {
	t.Helper()
	dev, err := topology.ByName(devName)
	if err != nil {
		t.Fatal(err)
	}
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm := frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
	pcfg := place.DefaultConfig()
	pcfg.Mode = mode
	pcfg.MaxIters = 300
	pres, err := place.PlaceCtx(context.Background(), nl, cm, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	lcfg := legal.DefaultConfig()
	lcfg.FrequencyAware = mode == place.ModeQplacer
	if _, err := legal.LegalizeCtx(context.Background(), nl, pres.Region, cm, lcfg); err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestMeasureAgreesWithCollisionMap holds Measure and MinResonantDistance,
// which scan the netlist themselves, to the collision map: the violations
// are exactly the map's pairs whose padded rects intersect, in pair order,
// and the minimum resonant distance is the minimum over the map's pairs.
func TestMeasureAgreesWithCollisionMap(t *testing.T) {
	layouts := []struct {
		name string
		nl   func(t *testing.T) *component.Netlist
	}{
		{"spread", func(t *testing.T) *component.Netlist {
			nl := netlist(t)
			spread(nl)
			return nl
		}},
		{"stacked", func(t *testing.T) *component.Netlist {
			nl := netlist(t)
			for i, in := range nl.Instances {
				in.Pos = geom.Point{X: float64(i%7) * 0.3, Y: float64(i/7%7) * 0.3}
			}
			return nl
		}},
		{"grid/qplacer", func(t *testing.T) *component.Netlist { return legalized(t, "grid", place.ModeQplacer) }},
		{"falcon/classic", func(t *testing.T) *component.Netlist { return legalized(t, "falcon", place.ModeClassic) }},
	}
	const deltaC = physics.DetuneThresholdGHz
	for _, l := range layouts {
		nl := l.nl(t)
		cm := frequency.BuildCollisionMap(nl, deltaC)
		var want [][2]int
		for i, j := range cm.AllPairs() {
			a, b := nl.Instances[i], nl.Instances[j]
			if a.PaddedRect().IntersectionLength(b.PaddedRect()) > 0 {
				want = append(want, [2]int{i, j})
			}
		}
		rep := Measure(nl, deltaC)
		if len(rep.Violations) != len(want) {
			t.Fatalf("%s: %d violations, want %d", l.name, len(rep.Violations), len(want))
		}
		for k, v := range rep.Violations {
			if [2]int{v.A, v.B} != want[k] {
				t.Fatalf("%s: violation %d is pair %d-%d, want %v", l.name, k, v.A, v.B, want[k])
			}
		}
		t.Logf("%s: %d pairs, %d violations", l.name, cm.NumPairs(), len(want))
		if l.name == "stacked" && len(want) == 0 {
			t.Fatal("stacked layout has no violations: the check is vacuous")
		}

		for _, kind := range []component.Kind{component.KindQubit, component.KindSegment} {
			min := math.Inf(1)
			for i, j := range cm.AllPairs() {
				a, b := nl.Instances[i], nl.Instances[j]
				if a.Kind == kind {
					min = math.Min(min, a.Pos.Dist(b.Pos))
				}
			}
			if got := MinResonantDistance(nl, kind, deltaC); got != min {
				t.Fatalf("%s: MinResonantDistance(kind %v) = %v, want %v", l.name, kind, got, min)
			}
		}
	}
}
