package place

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
)

// scanWithin is the full-scan Verlet rebuild the grid replaced: every pair
// of the family, in pair order, kept when its squared distance is below r2.
func scanWithin(xy []float64, pairs [][2]int, r2 float64) [][2]int32 {
	var out [][2]int32
	for _, p := range pairs {
		dx := xy[2*p[0]] - xy[2*p[1]]
		dy := xy[2*p[0]+1] - xy[2*p[1]+1]
		if dx*dx+dy*dy < r2 {
			out = append(out, [2]int32{int32(p[0]), int32(p[1])})
		}
	}
	return out
}

// TestVerletGridRebuildMatchesScan holds the grid-built Verlet rebuild of
// both frequency families to a scan over the family's collision pairs,
// element for element, along seeded position walks. The walks drift every
// instance, throw some far outside the region (where the grid clamps them
// into edge cells), stack some on one point and give one a NaN coordinate.
// Besides the golden corpus's topologies and Eagle, it covers a falcon
// netlist retuned so that resonance is not transitive.
func TestVerletGridRebuildMatchesScan(t *testing.T) {
	suite, err := registerGoldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	topos := []string{"grid", "falcon", suite}
	if !testing.Short() {
		topos = append(topos, "eagle")
	}
	type problem struct {
		name string
		nl   *component.Netlist
		cm   *frequency.CollisionMap
	}
	var problems []problem
	for _, topo := range topos {
		nl, cm := placeProblem(t, topo)
		problems = append(problems, problem{topo, nl, cm})
	}
	// Falcon retuned so that resonance is not transitive (6.00 ~ 6.08 ~
	// 6.16 GHz, 6.00 ≁ 6.16, and likewise for the qubits): an instance's
	// partners then come from several classes' grids.
	nl, _ := placeProblem(t, "falcon")
	retune := rand.New(rand.NewSource(23))
	for _, r := range nl.Resonators {
		f := 6.00 + 0.08*float64(retune.Intn(3))
		for _, s := range r.Segments {
			nl.Instances[s].FreqGHz = f
		}
	}
	for _, q := range nl.QubitInst {
		nl.Instances[q].FreqGHz = 4.90 + 0.08*float64(retune.Intn(3))
	}
	problems = append(problems, problem{"falcon/non-transitive", nl, frequency.BuildCollisionMap(nl, 0.1)})

	for _, p := range problems {
		topo, nl, cm := p.name, p.nl, p.cm
		e := newEngine(nl, cm, DefaultConfig())
		qubitPairs, segPairs := collisionFamilies(e)
		rng := rand.New(rand.NewSource(17))
		xy := nl.Positions()
		r := e.region
		n := len(nl.Instances)
		var kept int
		for step := range 12 {
			xy = drift(rng, xy, 0.3)
			switch step % 4 {
			case 1: // far outside the region, on every side
				for range n / 10 {
					i := rng.Intn(n)
					xy[2*i] = r.Lo.X + (3*rng.Float64()-1)*r.W()
					xy[2*i+1] = r.Lo.Y - rng.Float64()*r.H()
				}
			case 2: // a stack of coincident instances
				c := rng.Intn(n)
				for range n / 10 {
					i := rng.Intn(n)
					xy[2*i], xy[2*i+1] = xy[2*c], xy[2*c+1]
				}
			case 3:
				xy[2*rng.Intn(n)+1] = math.NaN()
			}
			for _, f := range []struct {
				vl    *verlet
				pairs [][2]int
			}{{e.vlQ, qubitPairs}, {e.vlS, segPairs}} {
				label := fmt.Sprintf("%s/step %d/rcut %g", topo, step, f.vl.rcut)
				if f.vl.total != len(f.pairs) {
					t.Fatalf("%s: family of %d pairs, the map lists %d", label, f.vl.total, len(f.pairs))
				}
				reach := f.vl.rcut + f.vl.margin
				want := scanWithin(xy, f.pairs, reach*reach)
				got := f.vl.within(xy, reach*reach, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: grid found %d pairs within reach, the scan %d", label, len(got), len(want))
				}
				kept += len(want)
			}
		}
		if kept == 0 {
			t.Fatalf("%s: no pair was ever within reach", topo)
		}
	}
}
