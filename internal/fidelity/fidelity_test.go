package fidelity

import (
	"math/rand"
	"testing"

	"qplacer/internal/circuit"
	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/mapper"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

func setup(t *testing.T) (*component.Netlist, *mapper.Mapping) {
	t.Helper()
	dev := topology.Grid25()
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Spread layout: no crosstalk.
	for i, in := range nl.Instances {
		in.Pos = geom.Point{X: float64(i%30) * 6, Y: float64(i/30) * 6}
	}
	m, err := mapper.Map(circuit.BV(4), dev, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return nl, m
}

func TestSpreadLayoutHasNoCrosstalk(t *testing.T) {
	nl, m := setup(t)
	bd := Estimate(nl, m, DefaultParams())
	if bd.FQubitXT < 0.9999 || bd.FResXT < 0.9999 {
		t.Fatalf("spread layout crosstalk factors: q=%v r=%v", bd.FQubitXT, bd.FResXT)
	}
	if bd.FIntrinsic >= 1 || bd.FIntrinsic <= 0 {
		t.Fatalf("intrinsic factor = %v, want (0,1)", bd.FIntrinsic)
	}
	if bd.F != bd.FIntrinsic*bd.FQubitXT*bd.FResXT {
		t.Fatal("total must be the product of factors")
	}
}

func TestStackedResonantQubitsCrushFidelity(t *testing.T) {
	nl, m := setup(t)
	clean := Estimate(nl, m, DefaultParams()).F
	// Stack two active resonant qubits.
	var done bool
	for i := 0; i < len(m.ActiveQubits) && !done; i++ {
		for j := i + 1; j < len(m.ActiveQubits); j++ {
			a := nl.Instances[nl.QubitInst[m.ActiveQubits[i]]]
			b := nl.Instances[nl.QubitInst[m.ActiveQubits[j]]]
			if frequency.Resonant(a.FreqGHz, b.FreqGHz, 0.1) {
				b.Pos = a.Pos.Add(geom.Point{X: 0.9})
				done = true
				break
			}
		}
	}
	if !done {
		t.Skip("no resonant active qubit pair in this mapping")
	}
	dirty := Estimate(nl, m, DefaultParams()).F
	if dirty >= clean/2 {
		t.Fatalf("stacked resonant qubits: fidelity %v vs clean %v — no penalty", dirty, clean)
	}
}

func TestFidelityMonotoneInGateErrors(t *testing.T) {
	nl, m := setup(t)
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.Err2Q *= 4
	if Estimate(nl, m, p2).F >= Estimate(nl, m, p1).F {
		t.Fatal("larger gate errors must lower fidelity")
	}
}
