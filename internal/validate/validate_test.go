package validate

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"qplacer/internal/anneal"
	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/legal"
	"qplacer/internal/metrics"
	"qplacer/internal/physics"
	"qplacer/internal/place"
	"qplacer/internal/topology"
)

// buildNetlist builds topo's unplaced netlist at the paper's Δc.
func buildNetlist(t *testing.T, topo string) *component.Netlist {
	t.Helper()
	dev, err := topology.ByName(topo)
	if err != nil {
		t.Fatal(err)
	}
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// legalNetlist builds a small netlist and hand-places it on a coarse grid so
// every claim footprint is disjoint — a known-good layout to corrupt.
func legalNetlist(t *testing.T) *component.Netlist {
	t.Helper()
	nl := buildNetlist(t, "grid")
	// 2 mm pitch comfortably exceeds the 1.2 mm qubit claim width.
	cols := int(math.Ceil(math.Sqrt(float64(len(nl.Instances)))))
	for i, in := range nl.Instances {
		in.Pos = geom.Point{X: float64(i%cols) * 2, Y: float64(i/cols) * 2}
	}
	return nl
}

func countCode(rep *Report, code Code) int {
	n := 0
	for _, v := range rep.Violations {
		if v.Code == code {
			n++
		}
	}
	return n
}

func TestCheckCleanLayout(t *testing.T) {
	nl := legalNetlist(t)
	rep, err := Check(Input{Netlist: nl, DeltaC: physics.DetuneThresholdGHz})
	if err != nil {
		t.Fatal(err)
	}
	if countCode(rep, CodeOverlap) != 0 || countCode(rep, CodeNonFinite) != 0 {
		t.Fatalf("clean layout reported hard violations: %+v", rep.Violations)
	}
	if !rep.Valid() {
		t.Fatalf("clean layout invalid: %+v", rep.Violations)
	}
	if rep.InstancesChecked != len(nl.Instances) {
		t.Fatalf("InstancesChecked = %d, want %d", rep.InstancesChecked, len(nl.Instances))
	}
	wantPairs := len(nl.Instances) * (len(nl.Instances) - 1) / 2
	if rep.PairsChecked != wantPairs {
		t.Fatalf("PairsChecked = %d, want %d", rep.PairsChecked, wantPairs)
	}
}

func TestCheckFlagsOverlapAndFrequencyCollision(t *testing.T) {
	nl := legalNetlist(t)
	// Force the first two qubits onto colliding frequencies AND the same
	// spot: one overlap error plus one frequency-collision warning.
	a, b := nl.Instances[nl.QubitInst[0]], nl.Instances[nl.QubitInst[1]]
	b.Pos = a.Pos
	b.FreqGHz = a.FreqGHz
	rep, err := Check(Input{Netlist: nl, DeltaC: physics.DetuneThresholdGHz})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid() {
		t.Fatal("corrupted layout passed validation")
	}
	if countCode(rep, CodeOverlap) == 0 {
		t.Fatalf("no overlap violation in %+v", rep.Violations)
	}
	if countCode(rep, CodeFrequencyCollision) == 0 {
		t.Fatalf("no frequency-collision violation in %+v", rep.Violations)
	}
	// The violation carries its location and both instance IDs.
	for _, v := range rep.Violations {
		if v.Code == CodeOverlap {
			if v.A != a.ID || v.B != b.ID {
				t.Fatalf("overlap endpoints = %d,%d, want %d,%d", v.A, v.B, a.ID, b.ID)
			}
			if v.Pos != a.Pos {
				t.Fatalf("overlap site = %v, want %v", v.Pos, a.Pos)
			}
			if v.Severity != SeverityError {
				t.Fatalf("overlap severity = %v, want error", v.Severity)
			}
		}
		if v.Code == CodeFrequencyCollision && v.Severity != SeverityWarning {
			t.Fatalf("frequency collision severity = %v, want warning", v.Severity)
		}
	}
	errs, warns := rep.Counts()
	if errs == 0 || warns == 0 {
		t.Fatalf("Counts() = %d errors, %d warnings; want both non-zero", errs, warns)
	}
}

func TestCheckSameResonatorSegmentsExempt(t *testing.T) {
	nl := legalNetlist(t)
	// Two abutting segments of one resonator share a frequency by
	// construction: no frequency collision may fire for them.
	res := nl.Resonators[0]
	if len(res.Segments) < 2 {
		t.Skip("resonator 0 has a single segment")
	}
	s0, s1 := nl.Instances[res.Segments[0]], nl.Instances[res.Segments[1]]
	s1.Pos = geom.Point{X: s0.Pos.X + s0.W + s0.Pad, Y: s0.Pos.Y}
	rep, err := Check(Input{Netlist: nl, DeltaC: physics.DetuneThresholdGHz})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		if v.Code == CodeFrequencyCollision && v.A == s0.ID && v.B == s1.ID {
			t.Fatalf("same-resonator pair flagged: %+v", v)
		}
	}
}

func TestCheckFlagsNonFinite(t *testing.T) {
	nl := legalNetlist(t)
	nl.Instances[3].Pos.X = math.NaN()
	nl.Instances[5].FreqGHz = math.Inf(1)
	rep, err := Check(Input{Netlist: nl, DeltaC: physics.DetuneThresholdGHz})
	if err != nil {
		t.Fatal(err)
	}
	if got := countCode(rep, CodeNonFinite); got != 2 {
		t.Fatalf("non-finite violations = %d, want 2", got)
	}
	if rep.Valid() {
		t.Fatal("non-finite layout passed validation")
	}
}

func TestCheckBounds(t *testing.T) {
	nl := legalNetlist(t)
	region, ok := geom.EnclosingRect(nl.PaddedRects())
	if !ok {
		t.Fatal("no enclosing rect")
	}
	rep, err := Check(Input{Netlist: nl, DeltaC: physics.DetuneThresholdGHz, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	if got := countCode(rep, CodeOutOfBounds); got != 0 {
		t.Fatalf("in-bounds layout reported %d boundary violations", got)
	}
	// Fling one instance far outside the die: a warning, not an error.
	nl.Instances[0].Pos = geom.Point{X: region.Hi.X + 100*region.W(), Y: region.Hi.Y}
	rep, err = Check(Input{Netlist: nl, DeltaC: physics.DetuneThresholdGHz, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	if got := countCode(rep, CodeOutOfBounds); got != 1 {
		t.Fatalf("boundary violations = %d, want 1", got)
	}
	for _, v := range rep.Violations {
		if v.Code == CodeOutOfBounds && v.Severity != SeverityWarning {
			t.Fatalf("boundary severity = %v, want warning", v.Severity)
		}
	}
}

func TestCheckMetricsConsistency(t *testing.T) {
	nl := legalNetlist(t)
	m := metrics.Measure(nl, physics.DetuneThresholdGHz)
	rep, err := Check(Input{Netlist: nl, DeltaC: physics.DetuneThresholdGHz, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := countCode(rep, CodeMetricsMismatch); got != 0 {
		t.Fatalf("honest metrics flagged %d mismatches: %+v", got, rep.Violations)
	}

	// Tamper with the claimed area: the independent recomputation catches it.
	tampered := *m
	tampered.Amer *= 1.5
	rep, err = Check(Input{Netlist: nl, DeltaC: physics.DetuneThresholdGHz, Metrics: &tampered})
	if err != nil {
		t.Fatal(err)
	}
	if got := countCode(rep, CodeMetricsMismatch); got == 0 {
		t.Fatal("tampered A_mer not flagged")
	}
	if rep.Valid() {
		t.Fatal("tampered metrics passed validation")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Code == CodeMetricsMismatch && strings.Contains(v.Detail, "A_mer") {
			found = true
		}
	}
	if !found {
		t.Fatalf("mismatch detail does not name A_mer: %+v", rep.Violations)
	}
}

func TestCheckRejectsEmptyInput(t *testing.T) {
	if _, err := Check(Input{}); err == nil {
		t.Fatal("nil netlist must be rejected")
	}
	if _, err := Check(Input{Netlist: &component.Netlist{}}); err == nil {
		t.Fatal("empty netlist must be rejected")
	}
}

func TestSeverityAndCodeStrings(t *testing.T) {
	if SeverityError.String() != "error" || SeverityWarning.String() != "warning" {
		t.Fatalf("severity strings: %v %v", SeverityError, SeverityWarning)
	}
	if Severity(9).String() == "" {
		t.Fatal("unknown severity must still print")
	}
}

// The full O(n²) verifier that Check replaced with grid-proposed pairs,
// kept verbatim as the reference TestCheckMatchesPairScan holds Check to.

func referenceCheck(in Input) (*Report, error) {
	if in.Netlist == nil || len(in.Netlist.Instances) == 0 {
		return nil, fmt.Errorf("validate: nil or empty netlist")
	}
	deltaC := in.DeltaC
	if deltaC <= 0 {
		deltaC = physics.DetuneThresholdGHz
	}
	nl := in.Netlist
	rep := &Report{InstancesChecked: len(nl.Instances)}

	// Per-instance checks: finiteness, then die-boundary containment.
	checkBounds := in.Region.W() > 0 && in.Region.H() > 0
	var die geom.Rect
	if checkBounds {
		die = in.Region.Inflate(boundsSlack * math.Max(in.Region.W(), in.Region.H()))
	}
	broken := make([]bool, len(nl.Instances)) // non-finite: skip pair checks
	for i, inst := range nl.Instances {
		if !finite(inst) {
			broken[i] = true
			rep.Violations = append(rep.Violations, Violation{
				Code:     CodeNonFinite,
				Severity: SeverityError,
				A:        inst.ID,
				B:        -1,
				Pos:      inst.Pos,
				Detail:   fmt.Sprintf("%s has a non-finite coordinate, size, or frequency", describe(inst)),
			})
			continue
		}
		if checkBounds && !die.ContainsRect(claimRect(inst)) {
			rep.Violations = append(rep.Violations, Violation{
				Code:     CodeOutOfBounds,
				Severity: SeverityWarning,
				A:        inst.ID,
				B:        -1,
				Pos:      inst.Pos,
				Detail: fmt.Sprintf("%s at %v lies outside the declared region %v (+%.0f%% slack)",
					describe(inst), inst.Pos, in.Region, boundsSlack*100),
			})
		}
	}

	// Pairwise checks: geometric overlap of claim footprints (error) and
	// frequency collisions within the interaction radius (warning), over
	// every pair.
	n := len(nl.Instances)
	for i := 0; i < n; i++ {
		if broken[i] {
			continue
		}
		a := nl.Instances[i]
		ca, ka := claimRect(a), keepOutRect(a)
		for j := i + 1; j < n; j++ {
			if broken[j] {
				continue
			}
			b := nl.Instances[j]
			rep.PairsChecked++

			if depth := penetration(ca, claimRect(b)); depth > overlapEps {
				rep.Violations = append(rep.Violations, Violation{
					Code:     CodeOverlap,
					Severity: SeverityError,
					A:        a.ID,
					B:        b.ID,
					Pos:      midpoint(a, b),
					Detail: fmt.Sprintf("%s and %s interpenetrate by %.4g mm",
						describe(a), describe(b), depth),
				})
			}

			// Frequency collisions: same-kind pairs only (the qubit and
			// resonator bands never approach within Δc), and segments of one
			// resonator are exempt (the Kronecker delta of Eq. 10).
			if a.Kind != b.Kind {
				continue
			}
			if a.Kind == component.KindSegment && a.Resonator == b.Resonator {
				continue
			}
			if !resonant(a.FreqGHz, b.FreqGHz, deltaC) {
				continue
			}
			if penetration(ka, keepOutRect(b)) <= 0 {
				continue
			}
			rep.Violations = append(rep.Violations, Violation{
				Code:     CodeFrequencyCollision,
				Severity: SeverityWarning,
				A:        a.ID,
				B:        b.ID,
				Pos:      midpoint(a, b),
				Detail: fmt.Sprintf("%s (%.3f GHz) and %s (%.3f GHz) are within Δc=%.3g GHz and their keep-outs intersect",
					describe(a), a.FreqGHz, describe(b), b.FreqGHz, deltaC),
			})
		}
	}

	if in.Metrics != nil {
		referenceCheckMetrics(nl, deltaC, in.Metrics, rep)
	}
	return rep, nil
}

func referenceCheckMetrics(nl *component.Netlist, deltaC float64, claimed *metrics.Report, rep *Report) {
	// A_mer: minimum enclosing rectangle over the padded footprints.
	// A_poly: padded cells for qubits (the keep-out belongs to the
	// component), bare wire blocks for segments.
	var amer geom.Rect
	var apoly float64
	for i, in := range nl.Instances {
		r := keepOutRect(in)
		if i == 0 {
			amer = r
		} else {
			amer = amer.Union(r)
		}
		if in.Kind == component.KindQubit {
			apoly += (in.W + 2*in.Pad) * (in.H + 2*in.Pad)
		} else {
			apoly += in.W * in.H
		}
	}
	amerArea := amer.Area()
	util := 0.0
	if amerArea > 0 {
		util = apoly / amerArea
	}

	num, hotspots := referenceHotspotSum(nl, deltaC)
	ph := 0.0
	if apoly > 0 {
		ph = 100 * num / apoly
	}

	mismatch := func(name string, claimedV, recomputed float64) {
		rep.Violations = append(rep.Violations, Violation{
			Code:     CodeMetricsMismatch,
			Severity: SeverityError,
			A:        -1,
			B:        -1,
			Detail: fmt.Sprintf("claimed %s %.9g disagrees with recomputed %.9g",
				name, claimedV, recomputed),
		})
	}
	within := func(a, b float64) bool {
		return math.Abs(a-b) <= metricsTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	if !within(claimed.Amer, amerArea) {
		mismatch("A_mer", claimed.Amer, amerArea)
	}
	if !within(claimed.Apoly, apoly) {
		mismatch("A_poly", claimed.Apoly, apoly)
	}
	if !within(claimed.Utilization, util) {
		mismatch("utilization", claimed.Utilization, util)
	}
	if !within(claimed.Ph, ph) {
		mismatch("P_h", claimed.Ph, ph)
	}
	if len(claimed.Violations) != hotspots {
		mismatch("violation count", float64(len(claimed.Violations)), float64(hotspots))
	}
}

// referenceHotspotSum is the P_h numerator and hotspot count over every
// pair, in (i, j) order.
func referenceHotspotSum(nl *component.Netlist, deltaC float64) (num float64, hotspots int) {
	n := len(nl.Instances)
	for i := 0; i < n; i++ {
		a := nl.Instances[i]
		if !finite(a) {
			continue
		}
		for j := i + 1; j < n; j++ {
			b := nl.Instances[j]
			if !finite(b) || a.Kind != b.Kind {
				continue
			}
			if a.Kind == component.KindSegment && a.Resonator == b.Resonator {
				continue
			}
			if !resonant(a.FreqGHz, b.FreqGHz, deltaC) {
				continue
			}
			ov, ok := keepOutRect(a).Intersect(keepOutRect(b))
			if !ok {
				continue
			}
			length := math.Max(ov.W(), ov.H())
			if length <= 0 {
				continue
			}
			num += length * a.Pos.Dist(b.Pos)
			hotspots++
		}
	}
	return num, hotspots
}

// pairScanCase is one layout TestCheckMatchesPairScan verifies both ways.
type pairScanCase struct {
	name   string
	nl     *component.Netlist
	region geom.Rect
	claim  *metrics.Report
}

// pipelineLayout places topo with placer ("nesterov" or "anneal", seed 1,
// iters iterations or sweeps; 0 keeps the default) and legalizes it with
// legalizer ("shelf", "greedy", or "" to keep the overlapping global
// placement).
func pipelineLayout(t *testing.T, topo, placer, legalizer string, iters int) pairScanCase {
	t.Helper()
	ctx := context.Background()
	nl := buildNetlist(t, topo)
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
	}
	var err error
	switch legalizer {
	case "shelf":
		_, err = legal.LegalizeCtx(ctx, nl, region, cm, legal.DefaultConfig())
	case "greedy":
		_, err = legal.RowScanCtx(ctx, nl, region, cm, legal.DefaultConfig())
	}
	if err != nil {
		t.Fatal(err)
	}
	if legalizer == "" {
		legalizer = "unlegalized"
	}
	return pairScanCase{
		name:   fmt.Sprintf("%s_%s_%s", topo, placer, legalizer),
		nl:     nl,
		region: region,
		claim:  metrics.Measure(nl, physics.DetuneThresholdGHz),
	}
}

// pairScanCases are the golden corpus's placer × legalizer layouts on grid
// and falcon plus their overlapping global placements, human layouts (which
// overlap), an Eagle shelf plan (not under -short), and layouts corrupted
// with instances far out of bounds and with NaN, ±Inf and overflowing
// attributes. Corrupted layouts keep the metrics claimed before corruption.
func pairScanCases(t *testing.T) []pairScanCase {
	t.Helper()
	var cases []pairScanCase
	for _, topo := range []string{"grid", "falcon"} {
		for _, placer := range []string{"nesterov", "anneal"} {
			for _, legalizer := range []string{"shelf", "greedy", ""} {
				cases = append(cases, pipelineLayout(t, topo, placer, legalizer, 40))
			}
		}
	}
	if !testing.Short() {
		cases = append(cases, pipelineLayout(t, "eagle", "nesterov", "shelf", 0))
	}
	for _, topo := range []string{"falcon", "eagle"} {
		nl := buildNetlist(t, topo)
		res := place.PlaceHuman(nl)
		cases = append(cases, pairScanCase{
			name: topo + "_human", nl: nl, region: res.Region,
			claim: metrics.Measure(nl, physics.DetuneThresholdGHz),
		})
	}

	far := pipelineLayout(t, "falcon", "nesterov", "shelf", 40)
	far.name = "falcon_far_out_of_bounds"
	ins := far.nl.Instances
	ins[3].Pos = geom.Point{X: 1e6, Y: 1e6}
	ins[4].Pos = ins[3].Pos // overlapping each other, far out
	ins[40].Pos = geom.Point{X: -1e9, Y: 3}
	ins[41].Pos = geom.Point{X: 1e300, Y: -1e300}
	ins[len(ins)-1].Pos = geom.Point{X: -1e300, Y: 1e300}
	cases = append(cases, far)

	odd := pipelineLayout(t, "falcon", "nesterov", "", 40)
	odd.name = "falcon_non_finite"
	ins = odd.nl.Instances
	inf := math.Inf(1)
	ins[0].Pos.X = math.NaN()
	ins[1].W = inf
	ins[2].Pad = -inf
	ins[5].FreqGHz = math.NaN()
	ins[6].Pos.Y = -inf
	ins[9].W = -0.5 // an inverted footprint
	// A negative padding makes a segment's claim wider than its keep-out,
	// here 4 mm against an inverted −2 mm.
	ins[100].W, ins[100].H, ins[100].Pad = 10, 10, -6
	ins[100].Pos = ins[120].Pos
	ins[11].Pos, ins[12].Pos = ins[13].Pos, ins[13].Pos // stacked
	cases = append(cases, odd)

	// Finite attributes whose footprints overflow to span ±Inf: the grid
	// degenerates to one cell.
	huge := pipelineLayout(t, "falcon", "nesterov", "", 40)
	huge.name = "falcon_overflowing_footprints"
	ins = huge.nl.Instances
	ins[7].W, ins[7].Pad = 1e308, 1e308
	ins[8].H, ins[8].Pad = -1e308, -1e308
	cases = append(cases, huge)
	return cases
}

// sameReport fails unless got and want agree field for field, positions
// bit for bit (NaN included).
func sameReport(t *testing.T, got, want *Report) {
	t.Helper()
	if got.InstancesChecked != want.InstancesChecked || got.PairsChecked != want.PairsChecked {
		t.Fatalf("checked %d instances, %d pairs; reference %d, %d",
			got.InstancesChecked, got.PairsChecked, want.InstancesChecked, want.PairsChecked)
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%d violations, reference %d", len(got.Violations), len(want.Violations))
	}
	for k, g := range got.Violations {
		w := want.Violations[k]
		if g.Code != w.Code || g.Severity != w.Severity || g.A != w.A || g.B != w.B || g.Detail != w.Detail ||
			math.Float64bits(g.Pos.X) != math.Float64bits(w.Pos.X) ||
			math.Float64bits(g.Pos.Y) != math.Float64bits(w.Pos.Y) {
			t.Fatalf("violation %d = %+v, reference %+v", k, g, w)
		}
	}
}

// TestCheckMatchesPairScan holds Check, whose pair checks visit only the
// pairs its grid proposes, to the full O(n²) sweep: the same Report, field
// for field and in the same order, and the same P_h numerator bit for bit.
func TestCheckMatchesPairScan(t *testing.T) {
	for _, c := range pairScanCases(t) {
		t.Run(c.name, func(t *testing.T) {
			in := Input{Netlist: c.nl, DeltaC: physics.DetuneThresholdGHz, Region: c.region, Metrics: c.claim}
			got, err := Check(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceCheck(in)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, got, want)

			intact := make([]bool, len(c.nl.Instances))
			for i, inst := range c.nl.Instances {
				intact[i] = finite(inst)
			}
			num, hotspots := hotspotSum(c.nl, in.DeltaC, pairs(c.nl, intact))
			wantNum, wantHotspots := referenceHotspotSum(c.nl, in.DeltaC)
			if math.Float64bits(num) != math.Float64bits(wantNum) || hotspots != wantHotspots {
				t.Fatalf("P_h numerator %v over %d hotspots, reference %v over %d", num, hotspots, wantNum, wantHotspots)
			}
			errs, warns := got.Counts()
			t.Logf("%d instances, %d violations (%d errors, %d warnings), %d hotspots", len(c.nl.Instances), len(got.Violations), errs, warns, hotspots)
		})
	}
}
