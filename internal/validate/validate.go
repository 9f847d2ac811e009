// Package validate is the independent placement verifier: it re-derives the
// paper's correctness constraints from scratch — pairwise frequency-collision
// detection within the interaction radius (Eq. 9/10), geometric overlap of
// the legalization claim footprints (§IV-B1/§IV-C2), die-boundary containment,
// and consistency of the claimed layout metrics (§V-C) — without calling any
// placer, legalizer, or metrics code paths. A layout that passes here is
// physically realizable regardless of which backend produced it, which is the
// conformance bar every pluggable backend has to clear.
package validate

import (
	"fmt"
	"iter"
	"math"

	"qplacer/internal/component"
	"qplacer/internal/geom"
	"qplacer/internal/metrics"
	"qplacer/internal/physics"
	"qplacer/internal/spatial"
)

// Severity ranks a violation. Errors make a placement invalid (a correct
// pipeline never emits them); warnings flag residual quality defects — e.g.
// frequency hotspots — that the paper measures (P_h) rather than forbids.
type Severity int

const (
	// SeverityWarning marks a quality defect a legal layout may still carry.
	SeverityWarning Severity = iota
	// SeverityError marks a hard constraint violation: the layout is not
	// physically valid.
	SeverityError
)

// String names the severity ("warning", "error"), as serialized in
// violation JSON.
func (s Severity) String() string {
	switch s {
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Code identifies the constraint a violation breaks.
type Code string

const (
	// CodeNonFinite reports an instance with a NaN or infinite coordinate,
	// size, or frequency.
	CodeNonFinite Code = "non_finite"
	// CodeOverlap reports two instances whose legalization claim footprints
	// overlap (the layout is not manufacturable).
	CodeOverlap Code = "overlap"
	// CodeFrequencyCollision reports a near-resonant pair — qubit–qubit or
	// segment–segment across resonators — inside the interaction radius
	// (their crosstalk keep-outs intersect): a frequency hotspot.
	CodeFrequencyCollision Code = "frequency_collision"
	// CodeOutOfBounds reports an instance far outside the declared placement
	// region (legalizers may legitimately spill a little past it).
	CodeOutOfBounds Code = "out_of_bounds"
	// CodeMetricsMismatch reports a claimed layout metric that disagrees with
	// its independent recomputation — a stale or tampered result.
	CodeMetricsMismatch Code = "metrics_mismatch"
)

// Violation is one broken constraint, located on the die.
type Violation struct {
	Code     Code
	Severity Severity
	A, B     int        // instance IDs; B is -1 for single-instance violations
	Pos      geom.Point // violation site (midpoint for pair violations)
	Detail   string
}

// Report collects every violation found plus the work performed, so callers
// can tell "no violations" apart from "nothing checked".
type Report struct {
	Violations       []Violation
	InstancesChecked int
	PairsChecked     int
}

// Valid reports whether the layout carries no error-severity violations.
func (r *Report) Valid() bool {
	for _, v := range r.Violations {
		if v.Severity == SeverityError {
			return false
		}
	}
	return true
}

// Counts tallies violations by severity.
func (r *Report) Counts() (errs, warnings int) {
	for _, v := range r.Violations {
		if v.Severity == SeverityError {
			errs++
		} else {
			warnings++
		}
	}
	return
}

// Input is one finished placement to verify.
type Input struct {
	// Netlist is the placed layout (required).
	Netlist *component.Netlist
	// DeltaC is the detuning threshold in GHz (<= 0 selects the paper's
	// default).
	DeltaC float64
	// Region is the declared placement region; a degenerate rectangle skips
	// the die-boundary check.
	Region geom.Rect
	// Metrics are the layout metrics the producer claims; nil skips the
	// consistency check.
	Metrics *metrics.Report
}

// overlapEps is the penetration depth below which two footprints count as
// abutting rather than overlapping, absorbing floating-point residue from
// grid-pitch arithmetic.
const overlapEps = 1e-9

// boundsSlack scales the declared region's larger side into the margin an
// instance may spill past it before the die-boundary check fires: legalizers
// legitimately pack a little outside the global-placement region (extra
// shelves, spiral fallbacks), but a component landing far away means the
// producer lost it.
const boundsSlack = 0.5

// metricsTol is the relative tolerance for the metrics-consistency check.
const metricsTol = 1e-6

// claimRect is the footprint an instance must keep exclusively: a qubit owns
// its fully padded cell (the padding is its crosstalk keep-out, §IV-B1),
// while a wire block owns its core plus half its padding on each side (the
// spacing between different wire blocks is shared). Re-derived here from the
// paper's spacing semantics; deliberately not imported from the legalizer.
func claimRect(in *component.Instance) geom.Rect {
	if in.Kind == component.KindQubit {
		return geom.RectAt(in.Pos, in.W+2*in.Pad, in.H+2*in.Pad)
	}
	return geom.RectAt(in.Pos, in.W+in.Pad, in.H+in.Pad)
}

// keepOutRect is the crosstalk keep-out used by the frequency-collision
// check: the fully padded footprint (the interaction radius of Eq. 18's
// hotspot test).
func keepOutRect(in *component.Instance) geom.Rect {
	return geom.RectAt(in.Pos, in.W+2*in.Pad, in.H+2*in.Pad)
}

// resonant re-derives the crosstalk indicator τ of Eq. 9: two components
// interact when their frequencies sit within the detuning threshold.
func resonant(f1, f2, deltaC float64) bool {
	return math.Abs(f1-f2) <= deltaC
}

// penetration returns how deeply two rectangles interpenetrate (the smaller
// of the axis overlaps), or 0 when they are disjoint or merely abut.
func penetration(a, b geom.Rect) float64 {
	ow := math.Min(a.Hi.X, b.Hi.X) - math.Max(a.Lo.X, b.Lo.X)
	oh := math.Min(a.Hi.Y, b.Hi.Y) - math.Max(a.Lo.Y, b.Lo.Y)
	if ow <= 0 || oh <= 0 {
		return 0
	}
	return math.Min(ow, oh)
}

// finite reports whether every geometric and spectral attribute of the
// instance is a finite number.
func finite(in *component.Instance) bool {
	for _, v := range []float64{in.Pos.X, in.Pos.Y, in.W, in.H, in.Pad, in.FreqGHz} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// midpoint returns the centre between two instance positions.
func midpoint(a, b *component.Instance) geom.Point {
	return geom.Point{X: (a.Pos.X + b.Pos.X) / 2, Y: (a.Pos.Y + b.Pos.Y) / 2}
}

// reach is the bounding box of an instance's claim and keep-out footprints.
// Every pairwise predicate below needs two of those footprints to overlap,
// and then the two boxes overlap too.
func reach(in *component.Instance) geom.Rect {
	return keepOutRect(in).Union(claimRect(in))
}

// pairs proposes the instance pairs the pairwise checks visit: the
// candidate pairs of spatial.Pairs over the instances' reaches, less those
// with an instance that is not intact, in the ascending (i, j) order of the
// O(n²) sweep, in which the checks append violations and sum P_h. The grid
// only skips pairs whose reaches lie apart, which can neither overlap nor
// collide.
func pairs(nl *component.Netlist, intact []bool) iter.Seq2[int, int] {
	rects := make([]geom.Rect, len(nl.Instances))
	for i, in := range nl.Instances {
		rects[i] = reach(in)
	}
	cand := spatial.Pairs(rects)
	return func(yield func(i, j int) bool) {
		for i, j := range cand {
			if intact[i] && intact[j] && !yield(i, j) {
				return
			}
		}
	}
}

// Check verifies one placed layout against every constraint and returns the
// full violation report. It never mutates the netlist. The only error is
// misuse (nil or empty netlist); violations are data, not errors.
func Check(in Input) (*Report, error) {
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
	intact := make([]bool, len(nl.Instances)) // finite; the rest skip pair checks
	nIntact := 0
	for i, inst := range nl.Instances {
		if !finite(inst) {
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
		intact[i] = true
		nIntact++
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
	// frequency collisions within the interaction radius (warning), over the
	// pairs the grid proposes. Every intact pair counts as checked: a pair
	// the grid skips is one whose footprints lie apart.
	rep.PairsChecked = nIntact * (nIntact - 1) / 2
	cand := pairs(nl, intact)
	for i, j := range cand {
		a, b := nl.Instances[i], nl.Instances[j]
		if depth := penetration(claimRect(a), claimRect(b)); depth > overlapEps {
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
		if penetration(keepOutRect(a), keepOutRect(b)) <= 0 {
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

	if in.Metrics != nil {
		checkMetrics(nl, deltaC, in.Metrics, rep, cand)
	}
	return rep, nil
}

// describe renders an instance for violation messages.
func describe(in *component.Instance) string {
	if in.Kind == component.KindQubit {
		return fmt.Sprintf("qubit %d (inst %d)", in.Qubit, in.ID)
	}
	return fmt.Sprintf("resonator %d segment %d (inst %d)", in.Resonator, in.SegIndex, in.ID)
}

// checkMetrics recomputes the §V-C layout metrics from the placed netlist —
// a second, independent derivation of Eq. 17/18 — and flags any claimed
// figure that disagrees beyond tolerance.
func checkMetrics(nl *component.Netlist, deltaC float64, claimed *metrics.Report, rep *Report, pairs iter.Seq2[int, int]) {
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

	num, hotspots := hotspotSum(nl, deltaC, pairs)
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

// hotspotSum is the numerator of P_h (Eq. 18) and the violating-pair count:
// Σ over near-resonant pairs with intersecting keep-outs of the intersection
// length × the centroid distance, summed over pairs in the order given.
func hotspotSum(nl *component.Netlist, deltaC float64, pairs iter.Seq2[int, int]) (num float64, hotspots int) {
	for i, j := range pairs {
		a, b := nl.Instances[i], nl.Instances[j]
		if a.Kind != b.Kind {
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
	return num, hotspots
}
