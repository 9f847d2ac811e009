package fidelity

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/legal"
	"qplacer/internal/physics"
	"qplacer/internal/place"
	"qplacer/internal/topology"
)

// resonatorProximityScan is resonatorProximity without the bounding-box
// prefilter: every segment pair is visited.
func resonatorProximityScan(nl *component.Netlist, ra, rb *component.Resonator) (minGap, adjLen float64) {
	minGap = math.Inf(1)
	for _, sa := range ra.Segments {
		ia := nl.Instances[sa]
		ca := ia.CoreRect()
		for _, sb := range rb.Segments {
			gap := ca.Gap(nl.Instances[sb].CoreRect())
			if gap < minGap {
				minGap = gap
			}
			if gap <= adjacencyGap {
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

// netlist builds devName's netlist at the default Δc and segment size.
func netlist(t *testing.T, devName string) (*component.Netlist, *frequency.CollisionMap) {
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
	return nl, frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
}

// legalized returns devName placed as the golden corpus places it
// (nesterov, 40 iterations, seed 1) and legalized by the shelf legalizer.
func legalized(t *testing.T, devName string) *component.Netlist {
	t.Helper()
	nl, cm := netlist(t, devName)
	cfg := place.DefaultConfig()
	cfg.MaxIters = 40
	res, err := place.PlaceCtx(context.Background(), nl, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legal.LegalizeCtx(context.Background(), nl, res.Region, cm, legal.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestResonatorProximityPrefilterExact holds resonatorProximity to the
// unfiltered scan on every ordered resonator pair of legalized falcon and
// Eagle layouts (falcon only under -short) and of seeded random layouts
// that scatter each resonator around its own centre. Wherever the scan finds adjacency the two agree
// bit for bit; wherever the prefilter answers (0, 0) the scan finds none.
// The crosstalk loop skips a pair exactly when adjLen is 0, so Estimate's
// fidelity is bit-identical with and without the prefilter.
func TestResonatorProximityPrefilterExact(t *testing.T) {
	type layout struct {
		name string
		nl   *component.Netlist
	}
	layouts := []layout{{"falcon", legalized(t, "falcon")}}
	if !testing.Short() {
		layouts = append(layouts, layout{"eagle", legalized(t, "eagle")})
	}
	rng := rand.New(rand.NewSource(9))
	for _, dev := range []string{"grid", "falcon"} {
		for trial := range 3 {
			// Each resonator's segments scatter around a random centre, a
			// little wider each trial, so boxes both overlap and stand apart.
			nl, _ := netlist(t, dev)
			side := math.Sqrt(nl.TotalPaddedArea())
			spread := 0.5 * float64(trial+1)
			for _, r := range nl.Resonators {
				c := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
				for _, s := range r.Segments {
					nl.Instances[s].Pos = c.Add(geom.Point{X: (2*rng.Float64() - 1) * spread, Y: (2*rng.Float64() - 1) * spread})
				}
			}
			layouts = append(layouts, layout{fmt.Sprintf("%s/random %d", dev, trial), nl})
		}
	}
	for _, l := range layouts {
		filtered, adjacent := 0, 0
		for i, ra := range l.nl.Resonators {
			for j, rb := range l.nl.Resonators {
				if i == j {
					continue
				}
				gotGap, gotAdj := resonatorProximity(l.nl, ra, rb, DefaultParams().CrosstalkRange)
				wantGap, wantAdj := resonatorProximityScan(l.nl, ra, rb)
				switch {
				case gotGap == wantGap && gotAdj == wantAdj:
				case gotGap == 0 && gotAdj == 0 && wantAdj <= 0:
					filtered++
				default:
					t.Fatalf("%s: resonators %d, %d: (%v, %v), scan (%v, %v)", l.name, i, j, gotGap, gotAdj, wantGap, wantAdj)
				}
				if wantAdj > 0 {
					adjacent++
				}
			}
		}
		if filtered == 0 || adjacent == 0 {
			t.Fatalf("%s: %d pairs prefiltered, %d adjacent: the check is vacuous", l.name, filtered, adjacent)
		}
		t.Logf("%s: %d pairs prefiltered, %d adjacent", l.name, filtered, adjacent)
	}
}
