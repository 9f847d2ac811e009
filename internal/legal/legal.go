// Package legal implements the integration-aware legalization of §IV-C2
// (Algorithm 1): a greedy spiral search places qubits on overlap-free
// positions, a min-cost-flow pass minimizes total qubit displacement
// (Tang et al. [88]), a Tetris-style sweep legalizes resonator segments
// (Chen et al. [17]), and a final integration stage verifies that every
// resonator's segments form one contiguous cluster, pulling scattered
// segments back to their resonator's largest cluster — swapping with
// foreign segments when no free space remains.
package legal

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/mcmf"
	"qplacer/internal/obs"
	"qplacer/internal/spatial"
)

// The legalizer's fixed search and repair settings.
const (
	// pitch is the spiral/Tetris search grid pitch (mm).
	pitch = 0.1
	// maxRings bounds the spiral search radius in pitch units.
	maxRings = 120
	// clusterGap is the maximum edge-to-edge gap (mm) at which two segments
	// of one resonator still count as contiguous (integration criterion).
	clusterGap = 0.35
	// maxIntegrationPasses bounds the pull-in repair loop.
	maxIntegrationPasses = 6
	// compactionPasses bounds the inward-compaction sweeps that shrink the
	// enclosing rectangle after integration.
	compactionPasses = 3
)

// Config holds the legalizer's per-run settings.
type Config struct {
	// FrequencyAware enables the isolation guards. Qplacer's legalizer is
	// frequency-aware (the integration legalizer of §IV-C2); the Classic
	// baseline uses the same machinery with the guards off, like the
	// classical engine's own legalizer.
	FrequencyAware bool

	// Progress, when non-nil, is called as legalization advances: LegalizeCtx
	// reports completed passes (step out of total), RowScanCtx completed
	// placement units. It must be fast and non-blocking.
	Progress func(step, total int)

	// Span, when non-nil, receives the per-pass timing breakdown:
	// LegalizeCtx records setup (the bucket grid) plus one child per
	// Algorithm-1 pass, noting the pass's spot-search work counts;
	// RowScanCtx records the shelf scan.
	Span *obs.Span
}

// DefaultConfig returns production settings.
func DefaultConfig() Config {
	return Config{
		FrequencyAware: true,
	}
}

// Result reports legalization statistics.
type Result struct {
	QubitDisplacement   float64 // total qubit movement (mm)
	SegmentDisplacement float64 // total segment movement (mm)
	IntegratedAll       bool    // every resonator contiguous at the end
	BrokenResonators    []int   // resonators still fragmented
	GuardFallbacks      int     // placements that gave up frequency isolation
	SpotFailures        int     // placements with no free spot at all
}

// LegalRect returns the footprint the legalizer keeps overlap-free for an
// instance: qubits claim their fully padded cell (their padding is the
// crosstalk keep-out, §IV-B1); segments claim their core plus half padding
// (shared spacing between different wire blocks).
func LegalRect(in *component.Instance) geom.Rect {
	if in.Kind == component.KindQubit {
		return in.PaddedRect()
	}
	return in.CoreRect().Inflate(in.Pad / 2)
}

// legalizer carries run state.
type legalizer struct {
	ctx    context.Context
	cfg    Config
	nl     *component.Netlist
	cm     *frequency.CollisionMap
	bounds geom.Rect
	pitch  float64 // the search grid pitch: the pitch constant, varied only by tests

	placed   []geom.Rect            // legal rects of fixed instances, shrunk by overlapEps/2
	slot     []int                  // instance ID → index in placed, -1 while unplaced
	order    []int                  // placed index → instance ID
	partners *frequency.PartnerGrid // fixed instances by centre, for the isolation guard

	// Spatial index of the placed rects (by placed index) over the widest
	// bounds findSpot searches: nx×ny cells of side cell from gridLo.
	cell   float64
	gridLo geom.Point
	nx, ny int
	grid   *spatial.Grid

	mask blockMask // the blocked offsets of the current findSpot call

	clusters clusterCounter // scratch of the cluster counts

	stats *Result    // live statistics sink
	work  workCounts // search work so far, noted on each pass span

	// levelHook, when non-nil, sees every findSpot escalation level's
	// outcome; tests compare the search against a reference with it.
	levelHook func(in *component.Instance, want geom.Point, skip, level int, bounds geom.Rect, out spotOutcome)
}

// workCounts tallies what the spot search did. The counts are exact per
// seed, so they pin the search's cost where wall time is too noisy.
type workCounts struct {
	probes     int // free offsets evaluated (bounds and guard checks)
	bits       int // mask bits tested: one per offset the spiral walk visits
	rasterized int // placed rects whose blocked offsets went into a mask
	queries    int // grid queries that widened a mask's covered rings
	scans      int // overlapsPlaced queries, each a bucket scan
	guards     int // isolation guard checks
	guardFails int // guard checks that failed
}

func (w workCounts) since(before workCounts) workCounts {
	return workCounts{
		probes:     w.probes - before.probes,
		bits:       w.bits - before.bits,
		rasterized: w.rasterized - before.rasterized,
		queries:    w.queries - before.queries,
		scans:      w.scans - before.scans,
		guards:     w.guards - before.guards,
		guardFails: w.guardFails - before.guardFails,
	}
}

func (w workCounts) String() string {
	return fmt.Sprintf("spot search: %d probes evaluated, %d mask bits tested; "+
		"mask: %d rects rasterized in %d grid queries; "+
		"overlap queries: %d by bucket scan; %d guard checks, %d failed",
		w.probes, w.bits, w.rasterized, w.queries, w.scans, w.guards, w.guardFails)
}

// guardedApart reports whether centres a and b keep the guard distance.
// Chebyshev metric: padded boxes overlap when BOTH axis offsets are below
// the padded size, so the guard must bound the larger axis offset, not the
// Euclidean distance (diagonal pairs would otherwise slip through and still
// overlap).
func guardedApart(a, b geom.Point, guard float64) bool {
	return max(math.Abs(a.X-b.X), math.Abs(a.Y-b.Y)) >= guard
}

// spotGrowth lists findSpot's escalation levels: each widens the search
// bounds by that fraction of their width.
var spotGrowth = [...]float64{0, 0.08, 0.20}

// maxGridCells caps the bucket grid per axis; only a region wider than this
// many millimetres coarsens the cell, which never changes a query's answer.
const maxGridCells = 512

func (lg *legalizer) setup() {
	n := len(lg.nl.Instances)
	lg.slot = make([]int, n)
	for i := range lg.slot {
		lg.slot[i] = -1
	}
	// Every instance is placed once, so placed and order reach n.
	lg.placed, lg.order = make([]geom.Rect, 0, n), make([]int, 0, n)
	reach := lg.bounds.Inflate(lg.bounds.W() * spotGrowth[len(spotGrowth)-1])
	lg.cell = max(1.0, max(reach.W(), reach.H())/maxGridCells)
	lg.gridLo = reach.Lo
	lg.grid = spatial.New(reach, lg.cell)
	lg.nx, lg.ny = lg.grid.Size()
	lg.partners = frequency.NewPartnerGrid(lg.cm, nil, reach, func(i int) float64 { return frequency.GuardMM(lg.nl.Instances[i].Kind) })
	lg.mask = blockMask{
		rows:    make([]uint64, maskSpan*maskWords),
		cols:    make([]uint64, maskSpan*maskWords),
		stamp:   make([]uint32, n),
		covered: -1,
	}
}

// LegalizeCtx snaps the globally placed netlist into an overlap-free
// layout. region is the placement region (the layout may grow slightly past
// it if space runs out); cm is the netlist's collision map, whose pairs the
// isolation guards keep apart and whose DeltaC is the τ threshold of the
// swap checks. cm is only read, so concurrent runs may share it.
//
// The instance-loop passes (greedy qubits, Tetris segments, integration,
// compaction) check ctx between instances, and the min-cost-flow refinement
// checks it before its indivisible solve; the first ctx.Err() observed is
// returned.
func LegalizeCtx(ctx context.Context, nl *component.Netlist, region geom.Rect, cm *frequency.CollisionMap, cfg Config) (*Result, error) {
	lg, err := newLegalizer(ctx, nl, region, cm, cfg)
	if err != nil {
		return nil, err
	}
	return lg.run()
}

// run sets lg up and runs Algorithm 1's passes, noting each pass's search
// work on its span.
func (lg *legalizer) run() (*Result, error) {
	cfg, nl := lg.cfg, lg.nl
	setupTimer := cfg.Span.Child("setup").Start()
	lg.setup()
	setupTimer.End()
	res := &Result{}
	lg.stats = res

	// Anchor positions: where global placement wanted each qubit, captured
	// before the greedy pass moves anything.
	anchors := make([]geom.Point, len(nl.QubitInst))
	for i, qi := range nl.QubitInst {
		anchors[i] = nl.Instances[qi].Pos
	}

	passes := []struct {
		name string
		run  func() error
	}{
		{"qubits", func() error { return lg.legalizeQubits(res) }},
		{"refine", func() error { return lg.refineQubits(res, anchors) }},
		{"segments", func() error { return lg.legalizeSegments(res) }},
		{"integrate", func() error { return lg.integrate(res) }},
		{"compact", func() error { return lg.compact(res) }},
	}
	for i, pass := range passes {
		span := cfg.Span.Child(pass.name)
		before := lg.work
		passTimer := span.Start()
		err := pass.run()
		passTimer.End()
		if err != nil {
			return nil, err
		}
		if work := lg.work.since(before); span != nil && work != (workCounts{}) {
			span.Note(work.String())
		}
		if cfg.Progress != nil {
			cfg.Progress(i+1, len(passes))
		}
	}
	return res, nil
}

// newLegalizer validates the inputs and returns a legalizer that still needs
// setup.
func newLegalizer(ctx context.Context, nl *component.Netlist, region geom.Rect, cm *frequency.CollisionMap, cfg Config) (*legalizer, error) {
	if err := checkCollisionMap(nl, cm); err != nil {
		return nil, err
	}
	for _, v := range []float64{region.Lo.X, region.Lo.Y, region.Hi.X, region.Hi.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("legal: non-finite region %v", region)
		}
	}
	lg := &legalizer{
		ctx: ctx,
		cfg: cfg,
		nl:  nl,
		cm:  cm,
		// The global-placement region is sized at TargetDensity < 1, so it
		// already carries the slack legalization needs; keeping the bounds
		// tight is what delivers the paper's compact-substrate result. A
		// small margin absorbs boundary quantization.
		bounds: region.Inflate(region.W() * 0.02),
		pitch:  pitch,
	}
	return lg, nil
}

// checkCollisionMap rejects a collision map that cannot describe nl.
func checkCollisionMap(nl *component.Netlist, cm *frequency.CollisionMap) error {
	if cm == nil || cm.Len() != len(nl.Instances) {
		return fmt.Errorf("legal: collision map does not cover the %d-instance netlist", len(nl.Instances))
	}
	return nil
}

// overlapEps is the tolerance for overlap checks: rectangle widths are
// reconstructed from centre positions, so independent computations of "the
// same" footprint differ by ~1e-16 mm. Anything shallower than a tenth of a
// nanometre is not a physical overlap.
const overlapEps = 1e-7

// overlapsEps reports whether two rects overlap deeper than the tolerance.
func overlapsEps(a, b geom.Rect) bool {
	return a.Inflate(-overlapEps / 2).Overlaps(b.Inflate(-overlapEps / 2))
}

// overlapsPlaced reports whether r overlaps any fixed legal rect, except
// instance skip's own (-1 skips nothing), by exactly the overlapsEps test:
// placed rects are stored pre-shrunk, so only r is shrunk here. The query
// scans the spatial index's buckets under r. The spiral search asks its
// blocked-offset mask instead; this serves the integration pass.
func (lg *legalizer) overlapsPlaced(r geom.Rect, skip int) bool {
	r = r.Inflate(-overlapEps / 2)
	lg.work.scans++
	x0, y0, x1, y1 := lg.grid.Range(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, idx := range lg.grid.Bucket(x, y) {
				if lg.order[idx] != skip && r.Overlaps(lg.placed[idx]) {
					return true
				}
			}
		}
	}
	return false
}

// fix records instance instID's legal rect r, and its centre, as placed.
func (lg *legalizer) fix(instID int, r geom.Rect) {
	r = r.Inflate(-overlapEps / 2)
	if idx := lg.slot[instID]; idx >= 0 {
		lg.grid.Remove(int32(idx), lg.placed[idx])
		lg.placed[idx] = r
		lg.grid.Add(int32(idx), r)
		lg.partners.Move(instID, lg.nl.Instances[instID].Pos)
		return
	}
	idx := len(lg.placed)
	lg.slot[instID] = idx
	lg.placed = append(lg.placed, r)
	lg.order = append(lg.order, instID)
	lg.grid.Add(int32(idx), r)
	lg.partners.Add(instID, lg.nl.Instances[instID].Pos)
}

// guardClear reports whether centre c keeps the isolation guard
// (frequency.GuardMM of in's kind) from every near-resonant partner of in
// filed in placed, whose cells are at least that guard wide.
func guardClear(nl *component.Netlist, placed *frequency.PartnerGrid, in *component.Instance, c geom.Point) bool {
	guard := frequency.GuardMM(in.Kind)
	for pid := range placed.Near(in.ID, c) {
		if !guardedApart(nl.Instances[pid].Pos, c, guard) {
			return false
		}
	}
	return true
}

// guardOK reports whether centre c keeps the isolation guard from the
// placed partners of instance in, or the legalizer is not frequency-aware.
func (lg *legalizer) guardOK(in *component.Instance, c geom.Point) bool {
	return !lg.cfg.FrequencyAware || lg.guarded(in, c)
}

// guarded is guardClear over the placed instances, counted in lg.work.
func (lg *legalizer) guarded(in *component.Instance, c geom.Point) bool {
	lg.work.guards++
	ok := guardClear(lg.nl, lg.partners, in, c)
	if !ok {
		lg.work.guardFails++
	}
	return ok
}

// spotOutcome is what one escalation level of findSpot found: the first
// guarded spot (ok; spot is the target otherwise) and the first free but
// unguarded one (haveFallback).
type spotOutcome struct {
	spot, fallback   geom.Point
	ok, haveFallback bool
}

// findSpot spiral-searches for the nearest position (grid pitch) where the
// instance's legal rect fits without overlap and — preferentially — clear
// of its near-resonant partners. If no guarded spot exists within the
// search radius, the nearest unguarded spot is used (the residual hotspot
// shows up in P_h, as in the paper). skip names the one instance whose own
// footprint does not block (-1 for none). Returns the centre and true, or
// the original position and false.
func (lg *legalizer) findSpot(in *component.Instance, want geom.Point, skip int) (geom.Point, bool) {
	// Preference order: a guarded (isolation-preserving) spot anywhere —
	// escalating the bounds outward if needed — beats an unguarded spot
	// nearby. Only when no guarded spot exists at any escalation level does
	// the nearest free-but-unguarded spot get used; those fallbacks are the
	// residual hotspots P_h measures.
	base := LegalRect(in)
	w, h := base.W(), base.H()
	// The placed rects do not change during the call, so every level reads
	// one mask.
	lg.beginMask(want, skip, w, h)
	fallback := geom.Point{}
	haveFallback := false
	for level, grow := range spotGrowth {
		bounds := lg.bounds
		if grow > 0 {
			bounds = bounds.Inflate(bounds.W() * grow)
		}
		out := lg.findSpotIn(in, bounds)
		if lg.levelHook != nil {
			lg.levelHook(in, want, skip, level, bounds, out)
		}
		if out.ok {
			return out.spot, true
		}
		if out.haveFallback && !haveFallback {
			fallback, haveFallback = out.fallback, true
		}
	}
	if haveFallback {
		if lg.stats != nil {
			lg.stats.GuardFallbacks++
		}
		return fallback, true
	}
	if lg.stats != nil {
		lg.stats.SpotFailures++
	}
	return want, false
}

// spiralSearch is one escalation level of findSpot: it probes the offsets
// (x, y) in pitch units around want ring by ring, by increasing Chebyshev
// distance, each ring clockwise from its top-left corner (top row left to
// right, right column down, bottom row right to left, left column up), out
// to maxRings. The first probe whose rect lies in bounds, overlaps no placed
// rect and keeps the guards wins.
//
// Two cuts skip work whose outcome is already known, so the result is the
// full walk's: the walk visits only the offset box outside which no probe
// rect fits in bounds, and it reads the offsets whose probes placed rects
// block from the call's blocked-offset mask, a word of them at a time (a
// blocked probe records no fallback and checks no guard).
type spiralSearch struct {
	lg     *legalizer
	in     *component.Instance
	bounds geom.Rect
	out    spotOutcome
}

// findSpotIn runs one escalation level of findSpot within bounds, for the
// target, skip and size lg.mask was begun with.
func (lg *legalizer) findSpotIn(in *component.Instance, bounds geom.Rect) spotOutcome {
	m := &lg.mask
	s := spiralSearch{lg: lg, in: in, bounds: bounds}
	s.out.spot = m.want
	x0, x1 := lg.fitRange(m.want.X, m.w, bounds.Lo.X, bounds.Hi.X)
	y0, y1 := lg.fitRange(m.want.Y, m.h, bounds.Lo.Y, bounds.Hi.Y)
	if x0 > x1 || y0 > y1 {
		return s.out
	}
	// The box's rings run from its Chebyshev distance to the origin out to
	// its farthest corner; fitRange keeps both within maxRings.
	for k := max(0, x0, -x1, y0, -y1); k <= max(-x0, x1, -y0, y1); k++ {
		if k > m.covered {
			lg.coverRings(k)
		}
		if s.ring(k, x0, x1, y0, y1) {
			break
		}
	}
	return s.out
}

// coord is a probe centre's coordinate along one axis at offset v.
func (lg *legalizer) coord(want float64, v int) float64 {
	return want + float64(v)*lg.pitch
}

// fitRange returns the offsets lo..hi within ±maxRings at which a probe of
// the given size centred at coord(want, v) lies inside [bLo, bHi], by the
// four comparisons ContainsRect makes along this axis. Rounding is
// monotone, so each comparison flips at most once as v grows, and the
// offsets that pass all four form one interval: bisection finds it
// exactly, at any magnitude. A non-finite want gives an empty range.
func (lg *legalizer) fitRange(want, size, bLo, bHi float64) (lo, hi int) {
	k := maxRings
	n := 2*k + 1
	lo = sort.Search(n, func(i int) bool {
		c := lg.coord(want, i-k)
		return c-size/2 >= bLo && c+size/2 >= bLo
	}) - k
	hi = sort.Search(n, func(i int) bool {
		c := lg.coord(want, i-k)
		return !(c-size/2 <= bHi && c+size/2 <= bHi)
	}) - k - 1
	return lo, hi
}

// ring probes ring k's offsets inside the box [x0,x1]×[y0,y1] in spiral
// order and reports whether a guarded spot was found.
func (s *spiralSearch) ring(k, x0, x1, y0, y1 int) bool {
	if k == 0 {
		return s.side(true, 0, 0, 0, 1)
	}
	if y0 <= k && k <= y1 && s.side(true, k, max(-k, x0), min(k, x1), 1) {
		return true
	}
	if x0 <= k && k <= x1 && s.side(false, k, min(k-1, y1), max(-k, y0), -1) {
		return true
	}
	if y0 <= -k && -k <= y1 && s.side(true, -k, min(k-1, x1), max(-k, x0), -1) {
		return true
	}
	return x0 <= -k && -k <= x1 && s.side(false, -k, max(-k+1, y0), min(k-1, y1), 1)
}

// side probes the offsets from, from+dir, … to along one side of a ring: a
// row at y = fixed when horizontal, else a column at x = fixed. It reports
// whether a guarded spot was found.
func (s *spiralSearch) side(horizontal bool, fixed, from, to, dir int) bool {
	lg, m := s.lg, &s.lg.mask
	line := m.line(horizontal, fixed)
	for v := nextFree(line, from, to, dir); (to-v)*dir >= 0; v = nextFree(line, v+dir, to, dir) {
		x, y := v, fixed
		if !horizontal {
			x, y = fixed, v
		}
		c := geom.Point{X: lg.coord(m.want.X, x), Y: lg.coord(m.want.Y, y)}
		lg.work.probes++
		if !s.bounds.ContainsRect(geom.RectAt(c, m.w, m.h)) {
			continue
		}
		if lg.guardOK(s.in, c) {
			lg.work.bits += (v-from)*dir + 1
			s.out.spot, s.out.ok = c, true
			return true
		}
		if !s.out.haveFallback {
			s.out.fallback, s.out.haveFallback = c, true
		}
	}
	lg.work.bits += (to-from)*dir + 1
	return false
}

// legalizeQubits runs the greedy spiral pass over qubits (densest first:
// sorted by distance from the layout centroid, centre-out, which keeps
// displacement low for the congested middle).
func (lg *legalizer) legalizeQubits(res *Result) error {
	var cx, cy float64
	for _, qi := range lg.nl.QubitInst {
		cx += lg.nl.Instances[qi].Pos.X
		cy += lg.nl.Instances[qi].Pos.Y
	}
	n := float64(len(lg.nl.QubitInst))
	centroid := geom.Point{X: cx / n, Y: cy / n}

	order := append([]int(nil), lg.nl.QubitInst...)
	sort.SliceStable(order, func(a, b int) bool {
		return lg.nl.Instances[order[a]].Pos.Dist2(centroid) <
			lg.nl.Instances[order[b]].Pos.Dist2(centroid)
	})
	for _, qi := range order {
		if err := lg.ctx.Err(); err != nil {
			return err
		}
		in := lg.nl.Instances[qi]
		spot, ok := lg.findSpot(in, in.Pos, -1)
		if ok {
			res.QubitDisplacement += spot.Dist(in.Pos)
			in.Pos = spot
		}
		lg.fix(qi, LegalRect(in))
	}
	return nil
}

// refineQubits reassigns qubits among the greedy-legalized sites with
// min-cost flow (the white-space redistribution of Tang et al. [88]),
// minimizing total squared displacement from the global-placement anchors.
// All qubit cells are identical 1.2 mm squares, so permuting qubits over the
// occupied sites preserves legality by construction.
func (lg *legalizer) refineQubits(res *Result, anchors []geom.Point) error {
	qubits := lg.nl.QubitInst
	if len(qubits) < 2 {
		return nil
	}
	// The min-cost-flow solve is the pass's one indivisible chunk; checking
	// here bounds the cancellation latency to that solve.
	if err := lg.ctx.Err(); err != nil {
		return err
	}
	sites := make([]geom.Point, len(qubits))
	for i, qi := range qubits {
		sites[i] = lg.nl.Instances[qi].Pos
	}
	costs := make([][]float64, len(qubits))
	for i := range costs {
		costs[i] = make([]float64, len(sites))
		for j, s := range sites {
			costs[i][j] = anchors[i].Dist2(s)
		}
	}
	assign, _ := mcmf.Assign(costs)
	for i, qi := range qubits {
		in := lg.nl.Instances[qi]
		moved := sites[assign[i]]
		res.QubitDisplacement += moved.Dist(in.Pos)
		in.Pos = moved
		lg.fix(qi, LegalRect(in))
	}
	return nil
}

// legalizeSegments runs the Tetris-style pass left to right over whole
// resonators ("adherence to established orders", §IV-C2): resonators are
// processed by ascending mean x, and within each resonator the segments are
// placed in chain order, every block anchored near its predecessor's final
// spot. Contiguity is thereby built in, and the integration stage only has
// to repair the stragglers squeezed out by congestion.
func (lg *legalizer) legalizeSegments(res *Result) error {
	order := make([]int, len(lg.nl.Resonators))
	meanX := make([]float64, len(lg.nl.Resonators))
	crowd := make([]int, len(lg.nl.Resonators))
	for i, r := range lg.nl.Resonators {
		order[i] = i
		for _, sid := range r.Segments {
			meanX[i] += lg.nl.Instances[sid].Pos.X
			crowd[i] += lg.cm.Degree(sid)
		}
		meanX[i] /= float64(len(r.Segments))
	}
	// Most collision-prone resonators first: they take guarded spots while
	// free space is still plentiful, so isolation survives the end-game
	// congestion; ties resolve left to right (the Tetris order).
	sort.SliceStable(order, func(a, b int) bool {
		if crowd[order[a]] != crowd[order[b]] {
			return crowd[order[a]] > crowd[order[b]]
		}
		return meanX[order[a]] < meanX[order[b]]
	})
	for _, rIdx := range order {
		if err := lg.ctx.Err(); err != nil {
			return err
		}
		var prev geom.Point
		havePrev := false
		for _, sid := range lg.nl.Resonators[rIdx].Segments {
			in := lg.nl.Instances[sid]
			// The chain force already ribbons each resonator during global
			// placement, so the position itself is the best anchor
			// (minimal displacement preserves the engine's isolation); the
			// predecessor serves as a secondary anchor when the primary
			// neighbourhood is saturated, keeping the chain contiguous.
			spot, ok := lg.findSpot(in, in.Pos, -1)
			if ok && havePrev && spot.Dist(prev) > 3*in.W {
				if alt, okAlt := lg.findSpot(in, prev, -1); okAlt {
					spot = alt
				}
			}
			if ok {
				res.SegmentDisplacement += spot.Dist(in.Pos)
				in.Pos = spot
			}
			lg.fix(sid, LegalRect(in))
			prev = in.Pos
			havePrev = true
		}
	}
	return nil
}

// ResonatorClusters partitions a resonator's segments into contiguity
// clusters (edge-to-edge legal-rect gap ≤ clusterGap), largest cluster
// first. One cluster means the resonator is integrated. A caller that needs
// only the number of clusters uses a clusterCounter, which builds nothing.
func ResonatorClusters(nl *component.Netlist, resIdx int) [][]int {
	segs := nl.Resonators[resIdx].Segments
	n := len(segs)
	// The counter's union-find forest over positions in segs gives the
	// groups. size[root] counts the root's members until the groups are
	// carved, then holds its index in out.
	var cc clusterCounter
	cc.count(nl, resIdx)
	size := make([]int, n)
	for i := range segs {
		size[cc.find(i)]++
	}
	// Carve the groups out of one array. Each is capped at its own length,
	// so a caller appending to one group never writes into the next.
	members := make([]int, n)
	out := make([][]int, 0, n)
	for root, k := range size {
		if k > 0 {
			size[root] = len(out)
			out = append(out, members[:0:k])
			members = members[k:]
		}
	}
	for i, s := range segs {
		g := size[cc.find(i)]
		out[g] = append(out[g], s)
	}
	for _, g := range out {
		slices.Sort(g)
	}
	slices.SortFunc(out, func(a, b []int) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		return a[0] - b[0]
	})
	return out
}

// clusterCounter counts a resonator's contiguity clusters, as
// len(ResonatorClusters) would, in scratch it reuses across calls.
type clusterCounter struct {
	parent []int
	rects  []geom.Rect
}

// count unites the segments of resonator resIdx that lie within clusterGap
// of each other and returns the number of clusters. Afterwards parent holds
// the union-find forest over positions in the segment list.
func (cc *clusterCounter) count(nl *component.Netlist, resIdx int) int {
	segs := nl.Resonators[resIdx].Segments
	n := len(segs)
	cc.parent = slices.Grow(cc.parent[:0], n)[:n]
	cc.rects = slices.Grow(cc.rects[:0], n)[:n]
	for i, s := range segs {
		cc.parent[i] = i
		cc.rects[i] = LegalRect(nl.Instances[s])
	}
	clusters := n
	for i := range n {
		for j := i + 1; j < n; j++ {
			if cc.rects[i].Gap(cc.rects[j]) <= clusterGap {
				if ri, rj := cc.find(i), cc.find(j); ri != rj {
					cc.parent[ri] = rj
					clusters--
				}
			}
		}
	}
	return clusters
}

// find returns the root of x, halving the path on the way.
func (cc *clusterCounter) find(x int) int {
	for cc.parent[x] != x {
		cc.parent[x] = cc.parent[cc.parent[x]]
		x = cc.parent[x]
	}
	return x
}

// integrate runs the resonator-integrity stage of Algorithm 1: resonators
// whose segments already form one cluster are fixed; fragmented ones have
// their scattered segments pulled to free spots adjacent to the largest
// cluster, or swapped with foreign segments beside the cluster when the
// swap keeps both resonators' frequencies non-resonant (the τ check) and
// does not fragment the donor.
func (lg *legalizer) integrate(res *Result) error {
	for pass := 0; pass < maxIntegrationPasses; pass++ {
		res.BrokenResonators = res.BrokenResonators[:0]
		for rIdx := range lg.nl.Resonators {
			if err := lg.ctx.Err(); err != nil {
				return err
			}
			if lg.clusters.count(lg.nl, rIdx) <= 1 {
				continue
			}
			cl := ResonatorClusters(lg.nl, rIdx)
			main := cl[0]
			for _, frag := range cl[1:] {
				for _, sid := range frag {
					if lg.pullIn(sid, main, res) {
						main = append(main, sid)
					}
				}
			}
			if lg.clusters.count(lg.nl, rIdx) > 1 {
				res.BrokenResonators = append(res.BrokenResonators, rIdx)
			}
		}
		if len(res.BrokenResonators) == 0 {
			break
		}
	}
	res.IntegratedAll = len(res.BrokenResonators) == 0
	sort.Ints(res.BrokenResonators)
	return nil
}

// pullIn moves segment sid next to the cluster; returns true on success.
func (lg *legalizer) pullIn(sid int, cluster []int, res *Result) bool {
	in := lg.nl.Instances[sid]
	if len(cluster) == 0 {
		return false
	}
	// Candidate anchors: every cluster segment, nearest first, so a congested
	// neighbourhood around the closest one does not doom the pull while the
	// far side of the cluster has room. Any anchor keeps contiguity — it is
	// in the cluster by definition.
	anchors := append([]int(nil), cluster...)
	sort.SliceStable(anchors, func(a, b int) bool {
		return lg.nl.Instances[anchors[a]].Pos.Dist2(in.Pos) <
			lg.nl.Instances[anchors[b]].Pos.Dist2(in.Pos)
	})
	// Free-spot search tightly around each anchor.
	base := LegalRect(in)
	step := base.W() + 0.02
	for _, cs := range anchors {
		anchor := lg.nl.Instances[cs].Pos
		for _, off := range []geom.Point{
			{X: step}, {X: -step}, {Y: step}, {Y: -step},
			{X: step, Y: step}, {X: -step, Y: step},
			{X: step, Y: -step}, {X: -step, Y: -step},
		} {
			c := anchor.Add(off)
			r := geom.RectAt(c, base.W(), base.H())
			if lg.bounds.ContainsRect(r) && !lg.overlapsPlaced(r, sid) && lg.guardOK(in, c) {
				res.SegmentDisplacement += c.Dist(in.Pos)
				in.Pos = c
				lg.fix(sid, LegalRect(in))
				return true
			}
		}
	}
	// Swap with a foreign segment adjacent to any anchor. A swap is accepted
	// only when it strictly reduces this resonator's cluster count — landing
	// near an anchor is not enough, the gap must actually close — while the
	// donor stays in one piece.
	before := lg.clusters.count(lg.nl, in.Resonator)
	for _, cs := range anchors {
		anchor := lg.nl.Instances[cs].Pos
		for _, other := range lg.nl.Instances {
			if other.Kind != component.KindSegment || other.Resonator == in.Resonator {
				continue
			}
			// Chebyshev prefilter before the Euclidean test. Hypot(dx, dy)
			// is max·√(1+(min/max)²), never below max. For special values
			// the builtin max is NaN if either axis is NaN (so the test is
			// false), else +Inf if either is infinite, where Hypot is +Inf
			// too. So this skips only what Dist rejects.
			d := other.Pos.Sub(anchor)
			if max(math.Abs(d.X), math.Abs(d.Y)) > 2*step || other.Pos.Dist(anchor) > 2*step {
				continue
			}
			// τ check (Algorithm 1, line 12): the foreign segment must stay
			// detuned from this resonator's neighbourhood after the swap.
			if frequency.Resonant(other.FreqGHz, in.FreqGHz, lg.cm.DeltaC) {
				continue
			}
			// Donor integrity plus isolation: the swap must not fragment the
			// other resonator, and both segments must stay clear of their
			// near-resonant partners at their new homes.
			oldA, oldB := in.Pos, other.Pos
			in.Pos, other.Pos = oldB, oldA
			lg.fix(sid, LegalRect(in))
			lg.fix(other.ID, LegalRect(other))
			if lg.clusters.count(lg.nl, other.Resonator) == 1 &&
				lg.clusters.count(lg.nl, in.Resonator) <= before &&
				lg.guardOK(in, in.Pos) && lg.guardOK(other, other.Pos) {
				res.SegmentDisplacement += oldA.Dist(oldB) * 2
				return true
			}
			// Revert.
			in.Pos, other.Pos = oldA, oldB
			lg.fix(sid, LegalRect(in))
			lg.fix(other.ID, LegalRect(other))
		}
	}
	return false
}

// compact pulls outlying segments toward the layout centroid to shrink the
// enclosing rectangle, accepting a move only when it (a) lands strictly
// closer to the centroid, (b) keeps the segment's resonator in one cluster,
// and (c) keeps the segment isolation guard (frequency.GuardMM) from
// near-resonant segments of other resonators, so compaction never
// reintroduces hotspots. The guard holds compaction even when the
// legalizer is not frequency-aware.
func (lg *legalizer) compact(res *Result) error {
	var cx, cy float64
	for _, in := range lg.nl.Instances {
		cx += in.Pos.X
		cy += in.Pos.Y
	}
	n := float64(len(lg.nl.Instances))
	centroid := geom.Point{X: cx / n, Y: cy / n}

	var segs []int
	for _, in := range lg.nl.Instances {
		if in.Kind == component.KindSegment {
			segs = append(segs, in.ID)
		}
	}
	for pass := 0; pass < compactionPasses; pass++ {
		sort.SliceStable(segs, func(a, b int) bool {
			return lg.nl.Instances[segs[a]].Pos.Dist2(centroid) >
				lg.nl.Instances[segs[b]].Pos.Dist2(centroid)
		})
		movedAny := false
		for _, sid := range segs {
			if err := lg.ctx.Err(); err != nil {
				return err
			}
			in := lg.nl.Instances[sid]
			old := in.Pos
			target := geom.Point{
				X: centroid.X + (old.X-centroid.X)*0.9,
				Y: centroid.Y + (old.Y-centroid.Y)*0.9,
			}
			spot, ok := lg.findSpot(in, target, sid)
			if !ok || spot.Dist2(centroid) >= old.Dist2(centroid)-1e-9 {
				continue
			}
			if !lg.guarded(in, spot) {
				continue
			}
			in.Pos = spot
			lg.fix(sid, LegalRect(in))
			// The guard needs no second look: a segment's partners are
			// segments, all placed by now, and re-fixing sid moves none of
			// them.
			if lg.clusters.count(lg.nl, in.Resonator) != 1 {
				in.Pos = old
				lg.fix(sid, LegalRect(in))
				continue
			}
			res.SegmentDisplacement += spot.Dist(old)
			movedAny = true
		}
		if !movedAny {
			break
		}
	}
	return nil
}
