package frequency_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

// TestPartnerGridMatchesPartners holds PartnerGrid.Near, filtered by the
// isolation guard's distance test, to a walk over every filed partner in
// cm.Partners, along seeded Add/Move/Reset sequences. Members and query
// points land inside the region, far outside it, stacked on one point,
// just inside a partner's reach, and at NaN or infinite coordinates. The
// netlists are grid, falcon, falcon retuned so that resonance is not
// transitive, and hand-built ones with non-finite frequencies; each is
// filed whole with the guard distances, and as its segments alone with one
// reach, as the placer files a frequency family.
func TestPartnerGridMatchesPartners(t *testing.T) {
	type problem struct {
		name   string
		nl     *component.Netlist
		deltaC float64
	}
	var problems []problem
	for _, dev := range []*topology.Device{topology.Grid25(), topology.Falcon27()} {
		a := frequency.Assign(dev, physics.DetuneThresholdGHz)
		nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, problem{dev.Name, nl, physics.DetuneThresholdGHz})
	}
	// Falcon retuned so that resonance is not transitive (6.00 ~ 6.08 ~
	// 6.16 GHz, 6.00 ≁ 6.16, and likewise for the qubits): an instance's
	// partners then come from several classes' grids.
	retuned := &component.Netlist{}
	for _, in := range problems[1].nl.Instances {
		c := *in
		retuned.Instances = append(retuned.Instances, &c)
	}
	retune := rand.New(rand.NewSource(23))
	freq := map[int]float64{}
	for _, in := range retuned.Instances {
		if in.Kind == component.KindQubit {
			in.FreqGHz = 4.90 + 0.08*float64(retune.Intn(3))
			continue
		}
		if _, ok := freq[in.Resonator]; !ok {
			freq[in.Resonator] = 6.00 + 0.08*float64(retune.Intn(3))
		}
		in.FreqGHz = freq[in.Resonator]
	}
	problems = append(problems, problem{"falcon/non-transitive", retuned, 0.1})
	problems = append(problems, problem{"hand-built", handBuilt(5), 0.085})

	region := geom.Rect{Hi: geom.Point{X: 24, Y: 16}}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, p := range problems {
		cm := frequency.BuildCollisionMap(p.nl, p.deltaC)
		n := len(p.nl.Instances)
		guard := func(i int) float64 { return frequency.GuardMM(p.nl.Instances[i].Kind) }
		var segs []int32
		for i, in := range p.nl.Instances {
			if in.Kind == component.KindSegment {
				segs = append(segs, int32(i))
			}
		}
		for _, f := range []struct {
			name  string
			ids   []int32
			reach func(int) float64
		}{
			{"all", nil, guard},
			{"segments", segs, func(int) float64 { return 1.3 }},
		} {
			ids := f.ids
			if ids == nil {
				for i := range n {
					ids = append(ids, int32(i))
				}
			}
			g := frequency.NewPartnerGrid(cm, f.ids, region, f.reach)
			rng := rand.New(rand.NewSource(31))
			filed := make([]bool, n)
			at := make([]geom.Point, n)
			stack := geom.Point{X: 7.5, Y: 3.25}
			point := func() geom.Point {
				switch k := rng.Intn(20); {
				case k < 2: // outside the region, near or far
					s := math.Pow(10, float64(rng.Intn(7)))
					return geom.Point{X: (2*rng.Float64() - 1) * s * 30, Y: (2*rng.Float64() - 1) * s * 20}
				case k < 3:
					return stack
				case k < 4: // a NaN or infinite coordinate, or two
					q := geom.Point{X: special[rng.Intn(3)], Y: 16 * rng.Float64()}
					if rng.Intn(2) == 0 {
						q.X, q.Y = q.Y+4, q.X
					}
					if rng.Intn(3) == 0 {
						q.X = special[rng.Intn(3)]
					}
					return q
				case k < 8: // just inside or outside a filed instance's reach
					j := ids[rng.Intn(len(ids))]
					if !filed[j] {
						break
					}
					r := f.reach(int(j)) * (1 + (2*rng.Float64()-1)*1e-12)
					return at[j].Add(geom.Point{X: r * float64(rng.Intn(3)-1), Y: r * (2*rng.Float64() - 1)})
				}
				return geom.Point{X: 24 * rng.Float64(), Y: 16 * rng.Float64()}
			}
			queries, hits := 0, 0
			for step := range 6000 {
				switch k := rng.Intn(100); {
				case k == 0:
					g.Reset()
					clear(filed)
				case k < 45:
					i := int(ids[rng.Intn(len(ids))])
					at[i] = point()
					if filed[i] {
						g.Move(i, at[i])
					} else {
						g.Add(i, at[i])
						filed[i] = true
					}
				default:
					i, q := int(ids[rng.Intn(len(ids))]), point()
					r := f.reach(i)
					var got []int
					for j := range g.Near(i, q) {
						if !(max(math.Abs(at[j].X-q.X), math.Abs(at[j].Y-q.Y)) >= r) {
							got = append(got, j)
						}
					}
					slices.Sort(got)
					var want []int
					for j := range cm.Partners(i) {
						if filed[j] && !(max(math.Abs(at[j].X-q.X), math.Abs(at[j].Y-q.Y)) >= r) {
							want = append(want, j)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s step %d: Near(%d, %v) keeps %v, the partner walk %v", p.name, f.name, step, i, q, got, want)
					}
					queries++
					if len(want) > 0 {
						hits++
					}
				}
			}
			t.Logf("%s/%s: %d queries, %d with a partner within reach", p.name, f.name, queries, hits)
			if hits < queries/10 || hits > queries*9/10 {
				t.Fatalf("%s/%s: %d of %d queries found a partner: the cases are too one-sided", p.name, f.name, hits, queries)
			}
		}
	}
}
