package metrics

import (
	"context"
	"math"
	"slices"
	"testing"

	"qplacer/internal/anneal"
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

// referenceMeasure is Measure as it was before its hotspot scan went
// through a spatial grid: the full O(n²) pair sweep.
func referenceMeasure(nl *component.Netlist, deltaC float64) *Report {
	rep := &Report{}
	rects := make([]geom.Rect, len(nl.Instances))
	for i, in := range nl.Instances {
		rects[i] = polygonRect(in)
		rep.Apoly += apolyArea(in)
	}
	if enc, ok := geom.EnclosingRect(rects); ok {
		rep.Amer = enc.Area()
	}
	if rep.Amer > 0 {
		rep.Utilization = rep.Apoly / rep.Amer
	}
	var num float64
	n := len(nl.Instances)
	impacted := map[int]bool{}
	for i := 0; i < n; i++ {
		a := nl.Instances[i]
		for j := i + 1; j < n; j++ {
			b := nl.Instances[j]
			if !frequency.NearResonant(a, b, deltaC) {
				continue
			}
			length := rects[i].IntersectionLength(rects[j])
			if length <= 0 {
				continue
			}
			dc := a.Pos.Dist(b.Pos)
			num += length * dc
			rep.Violations = append(rep.Violations, Violation{A: i, B: j, Length: length, Distance: dc})
			markImpacted(nl, a, impacted)
			markImpacted(nl, b, impacted)
		}
	}
	if rep.Apoly > 0 {
		rep.Ph = 100 * num / rep.Apoly
	}
	rep.ImpactedQubits = sortedKeys(impacted)
	return rep
}

// layout places topo with placer ("nesterov" or "anneal", seed 1, iters
// iterations or sweeps; 0 keeps the default) and legalizes it with
// legalizer ("shelf", "greedy", or "" to keep the overlapping global
// placement).
func layout(t *testing.T, topo, placer, legalizer string, iters int) *component.Netlist {
	t.Helper()
	ctx := context.Background()
	dev, err := topology.ByName(topo)
	if err != nil {
		t.Fatal(err)
	}
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm := frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
	var region geom.Rect
	switch placer {
	case "nesterov":
		cfg := place.DefaultConfig()
		cfg.Seed = 1
		if iters > 0 {
			cfg.MaxIters = iters
		}
		res, err := place.PlaceCtx(ctx, nl, cm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		region = res.Region
	case "anneal":
		cfg := anneal.DefaultConfig()
		cfg.Seed = 1
		if iters > 0 {
			cfg.Sweeps = iters
		}
		res, err := anneal.Place(ctx, nl, cm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		region = res.Region
	case "human":
		region = place.PlaceHuman(nl).Region
	}
	switch legalizer {
	case "shelf":
		_, err = legal.LegalizeCtx(ctx, nl, region, cm, legal.DefaultConfig())
	case "greedy":
		_, err = legal.RowScanCtx(ctx, nl, region, cm, legal.DefaultConfig())
	}
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestMeasureMatchesPairScan holds Measure, whose hotspot scan visits only
// the pairs a spatial grid proposes, to the full O(n²) sweep: the whole
// report, areas and P_h bit for bit and every violation in order, on the
// golden corpus's placer × legalizer layouts of grid and falcon, their
// overlapping global placements, human layouts, an Eagle shelf plan (not
// under -short), and layouts with instances far out, non-finite or with
// footprints that overflow to ±Inf.
func TestMeasureMatchesPairScan(t *testing.T) {
	type tc struct {
		name string
		nl   *component.Netlist
	}
	var cases []tc
	for _, topo := range []string{"grid", "falcon"} {
		for _, placer := range []string{"nesterov", "anneal"} {
			for _, legalizer := range []string{"shelf", "greedy", ""} {
				cases = append(cases, tc{topo + "_" + placer + "_" + legalizer, layout(t, topo, placer, legalizer, 40)})
			}
		}
	}
	if !testing.Short() {
		cases = append(cases, tc{"eagle_nesterov_shelf", layout(t, "eagle", "nesterov", "shelf", 0)})
	}
	for _, topo := range []string{"falcon", "eagle"} {
		cases = append(cases, tc{topo + "_human", layout(t, topo, "human", "", 0)})
	}

	far := layout(t, "falcon", "nesterov", "shelf", 40)
	ins := far.Instances
	ins[3].Pos = geom.Point{X: 1e6, Y: 1e6}
	ins[4].Pos = ins[3].Pos // overlapping each other, far out
	ins[40].Pos = geom.Point{X: -1e9, Y: 3}
	ins[41].Pos = geom.Point{X: 1e300, Y: -1e300}
	ins[len(ins)-1].Pos = geom.Point{X: -1e300, Y: 1e300}
	cases = append(cases, tc{"falcon_far_out", far})

	odd := layout(t, "falcon", "nesterov", "", 40)
	ins = odd.Instances
	inf := math.Inf(1)
	ins[0].Pos.X = math.NaN()
	ins[1].W = inf
	ins[2].Pad = -inf
	ins[5].FreqGHz = math.NaN()
	ins[6].Pos.Y = -inf
	ins[9].W = -0.5 // an inverted footprint
	ins[11].Pos, ins[12].Pos = ins[13].Pos, ins[13].Pos
	ins[14].Pos, ins[15].Pos = ins[0].Pos, ins[1].Pos // beside the NaN and the infinitely wide one
	cases = append(cases, tc{"falcon_non_finite", odd})

	huge := layout(t, "falcon", "nesterov", "", 40)
	ins = huge.Instances
	ins[7].W, ins[7].Pad = 1e308, 1e308
	ins[8].H, ins[8].Pad = -1e308, -1e308
	cases = append(cases, tc{"falcon_overflowing_footprints", huge})

	// Numbers agree bit for bit, except that any NaN matches any NaN: which
	// operand's payload a NaN product carries depends on the operand order
	// the compiler picks, which Go does not specify.
	bits := math.Float64bits
	same := func(a, b float64) bool { return bits(a) == bits(b) || a != a && b != b }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Measure(c.nl, physics.DetuneThresholdGHz)
			want := referenceMeasure(c.nl, physics.DetuneThresholdGHz)
			if !same(got.Amer, want.Amer) || !same(got.Apoly, want.Apoly) ||
				!same(got.Utilization, want.Utilization) || !same(got.Ph, want.Ph) {
				t.Fatalf("Amer/Apoly/util/Ph = %v/%v/%v/%v, reference %v/%v/%v/%v",
					got.Amer, got.Apoly, got.Utilization, got.Ph, want.Amer, want.Apoly, want.Utilization, want.Ph)
			}
			if len(got.Violations) != len(want.Violations) {
				t.Fatalf("%d violations, reference %d", len(got.Violations), len(want.Violations))
			}
			for k, g := range got.Violations {
				w := want.Violations[k]
				if g.A != w.A || g.B != w.B || !same(g.Length, w.Length) || !same(g.Distance, w.Distance) {
					t.Fatalf("violation %d = %+v, reference %+v", k, g, w)
				}
			}
			if !slices.Equal(got.ImpactedQubits, want.ImpactedQubits) {
				t.Fatalf("impacted qubits %v, reference %v", got.ImpactedQubits, want.ImpactedQubits)
			}
			t.Logf("%d instances, %d violations, P_h %v", len(c.nl.Instances), len(got.Violations), got.Ph)
		})
	}
}
