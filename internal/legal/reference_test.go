package legal

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/place"
)

// spiralOffsets returns grid offsets (in units of pitch) ordered by
// increasing Chebyshev ring distance from the origin: the origin first, then
// ring 1 (8 cells), ring 2 (16 cells), … up to maxRing rings, each ring
// clockwise from its top-left corner. It is the probe order findSpot walks,
// stored in full the way the search once did.
func spiralOffsets(maxRing int) []geom.Point {
	if maxRing < 0 {
		return nil
	}
	out := make([]geom.Point, 0, (2*maxRing+1)*(2*maxRing+1))
	out = append(out, geom.Point{})
	for ring := 1; ring <= maxRing; ring++ {
		r := float64(ring)
		for x := -ring; x <= ring; x++ {
			out = append(out, geom.Point{X: float64(x), Y: r})
		}
		for y := ring - 1; y >= -ring; y-- {
			out = append(out, geom.Point{X: r, Y: float64(y)})
		}
		for x := ring - 1; x >= -ring; x-- {
			out = append(out, geom.Point{X: float64(x), Y: -r})
		}
		for y := -ring + 1; y <= ring-1; y++ {
			out = append(out, geom.Point{X: -r, Y: float64(y)})
		}
	}
	return out
}

func TestSpiralOffsets(t *testing.T) {
	if got := spiralOffsets(-1); got != nil {
		t.Fatalf("negative rings should give nil, got %v", got)
	}
	offs := spiralOffsets(2)
	want := (2*2 + 1) * (2*2 + 1)
	if len(offs) != want {
		t.Fatalf("len = %d, want %d", len(offs), want)
	}
	if offs[0] != (geom.Point{}) {
		t.Fatalf("first offset should be origin, got %v", offs[0])
	}
	// Rings must be non-decreasing in Chebyshev distance and unique.
	seen := map[geom.Point]bool{}
	prevRing := 0.0
	for _, o := range offs {
		if seen[o] {
			t.Fatalf("duplicate offset %v", o)
		}
		seen[o] = true
		ring := math.Max(math.Abs(o.X), math.Abs(o.Y))
		if ring+1e-9 < prevRing {
			t.Fatalf("ring order violated at %v (ring %v after %v)", o, ring, prevRing)
		}
		prevRing = ring
	}
}

// overlapReport lists residual overlapping legal-rect pairs.
func overlapReport(nl *component.Netlist) [][2]int {
	var out [][2]int
	n := len(nl.Instances)
	for i := 0; i < n; i++ {
		ri := LegalRect(nl.Instances[i])
		for j := i + 1; j < n; j++ {
			if overlapsEps(ri, LegalRect(nl.Instances[j])) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// refSearch is the reference for one findSpot escalation level: it visits
// every offset of the stored spiral table in order, and answers overlap and
// guard queries by scanning placed rects and partners. It shares no search
// state with the legalizer, only the placed rects and positions.
type refSearch struct {
	spiral  []geom.Point
	visited int // spiral offsets visited

	// A copy of the placed rects sorted by left edge, refreshed per level,
	// and the widest of them.
	rects []refRect
	maxW  float64
}

// refRect is a copy of placed rect idx (pre-shrunk, as stored). key is its
// left edge, or +Inf when a coordinate is NaN: such a rect overlaps nothing.
type refRect struct {
	r       geom.Rect
	key     float64
	idx, id int
}

func newRefSearch(lg *legalizer) *refSearch {
	return &refSearch{spiral: spiralOffsets(maxRings)}
}

func (ref *refSearch) findSpotIn(lg *legalizer, in *component.Instance, want geom.Point, skip int, bounds geom.Rect) spotOutcome {
	ref.refresh(lg)
	base := LegalRect(in)
	w, h := base.W(), base.H()
	out := spotOutcome{spot: want}
	for _, off := range ref.spiral {
		ref.visited++
		c := geom.Point{
			X: want.X + off.X*lg.pitch,
			Y: want.Y + off.Y*lg.pitch,
		}
		r := geom.RectAt(c, w, h)
		if !bounds.ContainsRect(r) {
			continue
		}
		if ref.overlaps(r, skip) {
			continue
		}
		if refGuardOK(lg, in, c) {
			out.spot, out.ok = c, true
			return out
		}
		if !out.haveFallback {
			out.fallback, out.haveFallback = c, true
		}
	}
	return out
}

// refresh copies the placed rects and re-sorts them by left edge. Between
// levels at most a few rects move, so an insertion sort is nearly linear.
func (ref *refSearch) refresh(lg *legalizer) {
	for i := len(ref.rects); i < len(lg.placed); i++ {
		ref.rects = append(ref.rects, refRect{idx: i})
	}
	ref.maxW = 0
	for k := range ref.rects {
		e := &ref.rects[k]
		e.r, e.id = lg.placed[e.idx], lg.order[e.idx]
		e.key = e.r.Lo.X
		if slices.ContainsFunc([]float64{e.r.Lo.X, e.r.Lo.Y, e.r.Hi.X, e.r.Hi.Y}, math.IsNaN) {
			e.key = math.Inf(1)
		} else if w := e.r.W(); w > ref.maxW {
			ref.maxW = w
		}
	}
	for i := 1; i < len(ref.rects); i++ {
		for j := i; j > 0 && ref.rects[j].key < ref.rects[j-1].key; j-- {
			ref.rects[j], ref.rects[j-1] = ref.rects[j-1], ref.rects[j]
		}
	}
}

// overlaps is overlapsPlaced by scan: the same shrink and Overlaps test,
// over the rects whose left edge lies within the widest rect of r's.
func (ref *refSearch) overlaps(r geom.Rect, skip int) bool {
	r = r.Inflate(-overlapEps / 2)
	// The slack covers rounding in the stored widths.
	from := r.Lo.X - ref.maxW*(1+1e-9) - 1e-9*(1+math.Abs(r.Lo.X))
	k := sort.Search(len(ref.rects), func(i int) bool { return ref.rects[i].key >= from })
	for _, e := range ref.rects[k:] {
		if e.key >= r.Hi.X {
			break
		}
		if e.id != skip && r.Overlaps(e.r) {
			return true
		}
	}
	return false
}

// refGuardOK is guardOK without the witness: a scan of every placed
// partner.
func refGuardOK(lg *legalizer, in *component.Instance, c geom.Point) bool {
	if !lg.cfg.FrequencyAware {
		return true
	}
	for _, pid := range lg.cm.ByInst[in.ID] {
		if lg.slot[pid] >= 0 && !guardedApart(lg.nl.Instances[pid].Pos, c, frequency.GuardMM(in.Kind)) {
			return false
		}
	}
	return true
}

// sameOutcome compares two outcomes bit for bit (NaN targets included).
func sameOutcome(a, b spotOutcome) bool {
	same := func(p, q geom.Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	}
	return a.ok == b.ok && a.haveFallback == b.haveFallback && same(a.spot, b.spot) && same(a.fallback, b.fallback)
}

// differential runs a legalizer whose every findSpot level is checked
// against the reference on the same state, and tallies the guard fallbacks
// and spot failures findSpot should have counted.
type differential struct {
	t   *testing.T
	lg  *legalizer
	ref *refSearch

	levels, fallbacks, failures int
	anyFallback                 bool
}

func newDifferential(t *testing.T, nl *component.Netlist, region geom.Rect, cm *frequency.CollisionMap, cfg Config) *differential {
	t.Helper()
	lg, err := newLegalizer(context.Background(), nl, region, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lg.pool.Close)
	d := &differential{t: t, lg: lg, ref: newRefSearch(lg)}
	lg.levelHook = d.check
	return d
}

func (d *differential) check(in *component.Instance, want geom.Point, skip, level int, bounds geom.Rect, got spotOutcome) {
	d.levels++
	ref := d.ref.findSpotIn(d.lg, in, want, skip, bounds)
	if !sameOutcome(got, ref) {
		d.t.Fatalf("findSpot(instance %d, want %v, skip %d) level %d: got %+v, reference %+v",
			in.ID, want, skip, level, got, ref)
	}
	if level == 0 {
		d.anyFallback = false
	}
	d.anyFallback = d.anyFallback || ref.haveFallback
	switch {
	case ref.ok:
	case level < len(spotGrowth)-1:
	case d.anyFallback:
		d.fallbacks++
	default:
		d.failures++
	}
}

// checkStats compares the legalizer's counters with the reference tally.
func (d *differential) checkStats(res *Result) {
	d.t.Helper()
	if res.GuardFallbacks != d.fallbacks || res.SpotFailures != d.failures {
		d.t.Fatalf("GuardFallbacks/SpotFailures = %d/%d, reference %d/%d",
			res.GuardFallbacks, res.SpotFailures, d.fallbacks, d.failures)
	}
}

// TestFindSpotMatchesReference drives the shelf legalizer's real pass
// sequence on grid and falcon placements (and Eagle outside -short), with
// the frequency guards on and off, and checks every escalation level of
// every findSpot call against the reference search on the same state. It
// then throws adversarial queries at the final state: targets far outside
// the grid or non-finite, rects exactly on the bounds edges, the cached
// blocker as the skipped instance, and the cached blocker re-fixed
// elsewhere. It also holds the search to a third of the reference's
// probes, so a change that re-adds probes fails without timing noise.
func TestFindSpotMatchesReference(t *testing.T) {
	type tc struct {
		dev   string
		mode  place.Mode
		aware bool
	}
	cases := []tc{
		{"grid", place.ModeQplacer, true},
		{"grid", place.ModeClassic, false},
		{"falcon", place.ModeQplacer, true},
	}
	if !testing.Short() {
		cases = append(cases, tc{"eagle", place.ModeQplacer, true})
	}
	for _, c := range cases {
		nl, region, cm := placedNetlist(t, c.dev, c.mode)
		cfg := DefaultConfig()
		cfg.FrequencyAware = c.aware
		d := newDifferential(t, nl, region, cm, cfg)
		res, err := d.lg.run()
		if err != nil {
			t.Fatal(err)
		}
		d.checkStats(res)
		w := d.lg.work
		t.Logf("%s (guards %v): %d levels; %d probes vs %d reference offsets; %d skipped in %d runs; %d bucket scans, %d blocker hits, %d guard hits; %d fallbacks, %d failures",
			c.dev, c.aware, d.levels, w.probes, d.ref.visited, w.skipped, w.runs, w.scans, w.blockerHits, w.guardHits, d.fallbacks, d.failures)
		if 3*w.probes > d.ref.visited {
			t.Errorf("%s: %d probes evaluated, more than a third of the reference's %d", c.dev, w.probes, d.ref.visited)
		}
		d.adversarial()
		d.checkStats(res)
		if d.failures == 0 {
			t.Errorf("%s: no adversarial search failed at every escalation level", c.dev)
		}
	}
}

// adversarial queries the final state of d's run where the cuts are most
// likely to slip.
func (d *differential) adversarial() {
	lg := d.lg
	nl := lg.nl
	ids := []int{nl.QubitInst[0], nl.QubitInst[len(nl.QubitInst)-1], nl.Resonators[0].Segments[0]}
	nan, inf := math.NaN(), math.Inf(1)
	for _, id := range ids {
		in := nl.Instances[id]
		r := LegalRect(in)
		hw, hh := r.W()/2, r.H()/2
		b := lg.bounds
		p := lg.pitch
		wants := []geom.Point{
			in.Pos,
			{X: 1e4, Y: 1e4}, {X: -1e6, Y: b.Lo.Y}, {X: 1e300, Y: -1e300},
			{X: nan, Y: in.Pos.Y}, {X: in.Pos.X, Y: nan},
			{X: inf, Y: in.Pos.Y}, {X: in.Pos.X, Y: -inf},
			// Rects exactly on the bounds edges, and a few pitches off them.
			{X: b.Lo.X + hw, Y: b.Lo.Y + hh}, {X: b.Hi.X - hw, Y: b.Hi.Y - hh},
			{X: b.Lo.X + hw - 3*p, Y: b.Hi.Y - hh + 2*p},
			{X: b.Hi.X - hw + 5*p, Y: b.Lo.Y + hh - p},
			// Just past the level-0 bounds, so only escalation finds room.
			{X: b.Hi.X + hw, Y: b.Center().Y}, {X: b.Center().X, Y: b.Lo.Y - 4*hh},
			// Reachable only by the outermost rings.
			{X: b.Lo.X - float64(maxRings)*p, Y: b.Center().Y},
		}
		for _, want := range wants {
			for _, skip := range []int{-1, id} {
				lg.findSpot(in, want, skip)
			}
			// The cached blocker as the skipped instance: its own rect must
			// not answer for the query.
			if lg.blocker >= 0 {
				lg.findSpot(in, want, lg.order[lg.blocker])
			}
		}
		// Re-fix the cached blocker elsewhere between probes, then back.
		for _, want := range wants[:2] {
			lg.findSpot(in, in.Pos, -1)
			if lg.blocker < 0 {
				continue
			}
			other := nl.Instances[lg.order[lg.blocker]]
			old := other.Pos
			for _, to := range []geom.Point{want, {X: old.X + 3*p, Y: old.Y}} {
				other.Pos = to
				lg.fix(other.ID, LegalRect(other))
				lg.findSpot(in, in.Pos, -1)
				lg.findSpot(in, old, -1)
			}
			other.Pos = old
			lg.fix(other.ID, LegalRect(other))
		}
	}
}
