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
	"qplacer/internal/parallel"
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

	// Workers bounds the worker pool for LegalizeCtx's one independent
	// scan, the min-cost-flow cost matrix of the refine pass, with results
	// identical to a serial run at every worker count. The packing passes
	// stay sequential: each greedy decision depends on everything placed
	// before it. RowScanCtx is sequential throughout and ignores it. 0 or 1
	// runs serial.
	Workers int

	// Cutoffs overrides the adaptive-granularity threshold below which the
	// cost-matrix scan runs serial (fan-out dispatch costs more than it
	// saves on small problems). nil auto-calibrates once per process
	// (parallel.AutoCutoffs); the zero value always fans out. Gating only
	// selects between bit-identical implementations, so results never
	// depend on the cutoffs.
	Cutoffs *parallel.Cutoffs

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

	placed []geom.Rect // legal rects of fixed instances, shrunk by overlapEps/2
	slot   []int       // instance ID → index in placed, -1 while unplaced
	order  []int       // placed index → instance ID

	// Witnesses the next query tests first: the placed index that answered
	// the last overlapping query, and the instance and partner of the last
	// failed guard check (-1 for none). Placed rects and placements are never
	// removed, only re-fixed, so a witness always names a placed instance,
	// and it is re-tested against current state before it answers.
	blocker                 int
	guardInst, guardPartner int

	// Spatial hash over placed rects for O(1) neighbourhood queries: a flat
	// row-major grid of cell-sized buckets over the widest bounds findSpot
	// searches. Coordinates clamp into the grid, so rects outside it land in
	// edge buckets; clamping is monotone, so two overlapping rects always
	// share a bucket.
	cell    float64
	gridLo  geom.Point
	nx, ny  int
	buckets [][]int // bucket y*nx+x → placed indices

	pool *parallel.Pool   // bounds the independent scans; nil runs serial
	cut  parallel.Cutoffs // adaptive-granularity thresholds for the scans

	stats *Result    // live statistics sink
	work  workCounts // search work so far, noted on each pass span

	// levelHook, when non-nil, sees every findSpot escalation level's
	// outcome; tests compare the search against a reference with it.
	levelHook func(in *component.Instance, want geom.Point, skip, level int, bounds geom.Rect, out spotOutcome)
}

// workCounts tallies what the spot search did. The counts are exact per
// seed, so they pin the search's cost where wall time is too noisy.
type workCounts struct {
	probes      int // spiral offsets evaluated
	skipped     int // offsets skipped inside runs blocked by one rect
	runs        int // blocked-run skips taken
	scans       int // overlap queries that scanned buckets
	blockerHits int // overlap queries answered by the last blocker
	guardHits   int // failed guard checks answered by the last violator
}

func (w workCounts) since(before workCounts) workCounts {
	return workCounts{
		probes:      w.probes - before.probes,
		skipped:     w.skipped - before.skipped,
		runs:        w.runs - before.runs,
		scans:       w.scans - before.scans,
		blockerHits: w.blockerHits - before.blockerHits,
		guardHits:   w.guardHits - before.guardHits,
	}
}

func (w workCounts) String() string {
	return fmt.Sprintf("spot search: %d probes evaluated, %d skipped in %d blocked runs; "+
		"overlap queries: %d by bucket scan, %d by last-blocker witness; %d guard failures by last-violator witness",
		w.probes, w.skipped, w.runs, w.scans, w.blockerHits, w.guardHits)
}

// guardedApart reports whether centres a and b keep the guard distance.
// Chebyshev metric: padded boxes overlap when BOTH axis offsets are below
// the padded size, so the guard must bound the larger axis offset, not the
// Euclidean distance (diagonal pairs would otherwise slip through and still
// overlap).
func guardedApart(a, b geom.Point, guard float64) bool {
	return math.Max(math.Abs(a.X-b.X), math.Abs(a.Y-b.Y)) >= guard
}

// spotGrowth lists findSpot's escalation levels: each widens the search
// bounds by that fraction of their width.
var spotGrowth = [...]float64{0, 0.08, 0.20}

// maxGridCells caps the bucket grid per axis; only a region wider than this
// many millimetres coarsens the cell, which never changes a query's answer.
const maxGridCells = 512

func (lg *legalizer) setup() {
	lg.blocker, lg.guardInst, lg.guardPartner = -1, -1, -1
	lg.slot = make([]int, len(lg.nl.Instances))
	for i := range lg.slot {
		lg.slot[i] = -1
	}
	reach := lg.bounds.Inflate(lg.bounds.W() * spotGrowth[len(spotGrowth)-1])
	lg.cell = math.Max(1.0, math.Max(reach.W(), reach.H())/maxGridCells)
	lg.gridLo = reach.Lo
	lg.nx = lg.gridCells(reach.W())
	lg.ny = lg.gridCells(reach.H())
	lg.buckets = make([][]int, lg.nx*lg.ny)
}

// gridCells returns the bucket count that covers extent, at least one.
func (lg *legalizer) gridCells(extent float64) int {
	n := math.Floor(extent / lg.cell)
	if !(n >= 0) {
		return 1
	}
	return int(math.Min(n, maxGridCells)) + 1
}

// bucketCoord maps coordinate v to its bucket along an axis starting at lo
// with n buckets, clamped into [0, n-1] (NaN clamps to 0).
func (lg *legalizer) bucketCoord(v, lo float64, n int) int {
	f := math.Floor((v - lo) / lg.cell)
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int(f)
}

func (lg *legalizer) bucketRange(r geom.Rect) (x0, y0, x1, y1 int) {
	x0 = lg.bucketCoord(r.Lo.X, lg.gridLo.X, lg.nx)
	y0 = lg.bucketCoord(r.Lo.Y, lg.gridLo.Y, lg.ny)
	x1 = lg.bucketCoord(r.Hi.X, lg.gridLo.X, lg.nx)
	y1 = lg.bucketCoord(r.Hi.Y, lg.gridLo.Y, lg.ny)
	return
}

func (lg *legalizer) indexAdd(placedIdx int, r geom.Rect) {
	x0, y0, x1, y1 := lg.bucketRange(r)
	for y := y0; y <= y1; y++ {
		for b := y*lg.nx + x0; b <= y*lg.nx+x1; b++ {
			lg.buckets[b] = append(lg.buckets[b], placedIdx)
		}
	}
}

func (lg *legalizer) indexRemove(placedIdx int, r geom.Rect) {
	x0, y0, x1, y1 := lg.bucketRange(r)
	for y := y0; y <= y1; y++ {
		for b := y*lg.nx + x0; b <= y*lg.nx+x1; b++ {
			list := lg.buckets[b]
			for k, v := range list {
				if v == placedIdx {
					list[k] = list[len(list)-1]
					lg.buckets[b] = list[:len(list)-1]
					break
				}
			}
		}
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
	defer lg.pool.Close()
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
	cfg.Span.SetWorkers(lg.pool.WorkerBusy())
	return res, nil
}

// newLegalizer validates the inputs and returns a legalizer that owns a
// worker pool (the caller closes it) and still needs setup.
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
		pool:   parallel.New(cfg.Workers),
	}
	lg.cut = parallel.Resolve(cfg.Cutoffs, lg.pool)
	return lg, nil
}

// checkCollisionMap rejects a collision map that cannot describe nl.
func checkCollisionMap(nl *component.Netlist, cm *frequency.CollisionMap) error {
	if cm == nil || len(cm.ByInst) != len(nl.Instances) {
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
// placed rects are stored pre-shrunk, so only r is shrunk here. The rect
// that answered the last overlapping query is tested first, since spiral
// neighbours are usually blocked by the same rect; otherwise the query goes
// through the spatial hash. Either way the answer is whether some rect
// overlaps, and lg.blocker names one that does.
func (lg *legalizer) overlapsPlaced(r geom.Rect, skip int) bool {
	r = r.Inflate(-overlapEps / 2)
	if b := lg.blocker; b >= 0 && lg.order[b] != skip && r.Overlaps(lg.placed[b]) {
		lg.work.blockerHits++
		return true
	}
	lg.work.scans++
	x0, y0, x1, y1 := lg.bucketRange(r)
	for y := y0; y <= y1; y++ {
		for b := y*lg.nx + x0; b <= y*lg.nx+x1; b++ {
			for _, idx := range lg.buckets[b] {
				if lg.order[idx] != skip && r.Overlaps(lg.placed[idx]) {
					lg.blocker = idx
					return true
				}
			}
		}
	}
	return false
}

// fix records instance instID's legal rect r as placed.
func (lg *legalizer) fix(instID int, r geom.Rect) {
	r = r.Inflate(-overlapEps / 2)
	if idx := lg.slot[instID]; idx >= 0 {
		lg.indexRemove(idx, lg.placed[idx])
		lg.placed[idx] = r
		lg.indexAdd(idx, r)
		return
	}
	idx := len(lg.placed)
	lg.slot[instID] = idx
	lg.placed = append(lg.placed, r)
	lg.order = append(lg.order, instID)
	lg.indexAdd(idx, r)
}

// guardOK reports whether centre c keeps the isolation distance from the
// already-placed near-resonant partners of instance in. The partner that
// failed the instance's last check is tested first, at its current
// position: a failing check otherwise scans far into the partner list.
func (lg *legalizer) guardOK(in *component.Instance, c geom.Point) bool {
	if !lg.cfg.FrequencyAware {
		return true
	}
	guard := frequency.GuardMM(in.Kind)
	if in.ID == lg.guardInst && !guardedApart(lg.nl.Instances[lg.guardPartner].Pos, c, guard) {
		lg.work.guardHits++
		return false
	}
	for _, pid := range lg.cm.ByInst[in.ID] {
		if lg.slot[pid] < 0 {
			continue
		}
		if !guardedApart(lg.nl.Instances[pid].Pos, c, guard) {
			lg.guardInst, lg.guardPartner = in.ID, pid
			return false
		}
	}
	return true
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
	fallback := geom.Point{}
	haveFallback := false
	for level, grow := range spotGrowth {
		bounds := lg.bounds
		if grow > 0 {
			bounds = bounds.Inflate(bounds.W() * grow)
		}
		out := lg.findSpotIn(in, want, skip, bounds)
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
// Three cuts skip probes whose outcome is already known, so the result is
// the full walk's: the walk visits only the offset box outside which no
// probe rect fits in bounds; a probe blocked by placed rect B jumps to the
// last offset along its side that B still blocks; and the witnesses in
// overlapsPlaced and guardOK answer from the last blocker and violator.
type spiralSearch struct {
	lg     *legalizer
	in     *component.Instance
	want   geom.Point
	skip   int
	bounds geom.Rect
	w, h   float64 // the instance's legal rect
	out    spotOutcome
}

// findSpotIn runs one escalation level of findSpot within bounds.
func (lg *legalizer) findSpotIn(in *component.Instance, want geom.Point, skip int, bounds geom.Rect) spotOutcome {
	base := LegalRect(in)
	s := spiralSearch{lg: lg, in: in, want: want, skip: skip, bounds: bounds, w: base.W(), h: base.H()}
	s.out.spot = want
	x0, x1 := lg.fitRange(want.X, s.w, bounds.Lo.X, bounds.Hi.X)
	y0, y1 := lg.fitRange(want.Y, s.h, bounds.Lo.Y, bounds.Hi.Y)
	if x0 > x1 || y0 > y1 {
		return s.out
	}
	// The box's rings run from its Chebyshev distance to the origin out to
	// its farthest corner; fitRange keeps both within maxRings.
	for k := max(0, x0, -x1, y0, -y1); k <= max(-x0, x1, -y0, y1); k++ {
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
	for v := from; (to-v)*dir >= 0; v += dir {
		c := s.center(horizontal, fixed, v)
		r := geom.RectAt(c, s.w, s.h)
		s.lg.work.probes++
		if !s.bounds.ContainsRect(r) {
			continue
		}
		if s.lg.overlapsPlaced(r, s.skip) {
			v = s.blockedRunEnd(horizontal, fixed, v, to, dir)
			continue
		}
		if s.lg.guardOK(s.in, c) {
			s.out.spot, s.out.ok = c, true
			return true
		}
		if !s.out.haveFallback {
			s.out.fallback, s.out.haveFallback = c, true
		}
	}
	return false
}

// center is the probe centre at offset v along a side.
func (s *spiralSearch) center(horizontal bool, fixed, v int) geom.Point {
	x, y := v, fixed
	if !horizontal {
		x, y = fixed, v
	}
	return geom.Point{X: s.lg.coord(s.want.X, x), Y: s.lg.coord(s.want.Y, y)}
}

// blockedRunEnd is called when the probe at offset v along a side was
// blocked by placed rect B = lg.placed[lg.blocker]. It returns the last
// offset from v toward to whose probe B still blocks, or v itself.
//
// Along a side only one axis of the probe rect moves, and both of its edges
// are monotone in the offset, so the probes B overlaps are contiguous: if B
// blocks v and the returned offset, it blocks every probe between them. A
// blocked probe does nothing (no fallback, no guard check), so skipping the
// run changes no outcome. The end is estimated in closed form and then
// verified with the exact overlap test the probe would run; an estimate
// that rounding put past the run fails verification and skips nothing.
func (s *spiralSearch) blockedRunEnd(horizontal bool, fixed, v, to, dir int) int {
	b := s.lg.placed[s.lg.blocker]
	want, size, bLo, bHi := s.want.X, s.w, b.Lo.X, b.Hi.X
	if !horizontal {
		want, size, bLo, bHi = s.want.Y, s.h, b.Lo.Y, b.Hi.Y
	}
	// The shrunk probe spans coord ± (size-overlapEps)/2 along the axis; B
	// blocks until the probe's trailing edge passes B's far edge.
	var end float64
	if dir > 0 {
		end = math.Ceil((bHi+(size-overlapEps)/2-want)/s.lg.pitch) - 1
		end = math.Min(end, float64(to))
	} else {
		end = math.Floor((bLo-(size-overlapEps)/2-want)/s.lg.pitch) + 1
		end = math.Max(end, float64(to))
	}
	if !((end-float64(v))*float64(dir) > 0) { // also catches NaN
		return v
	}
	e := int(end)
	if !geom.RectAt(s.center(horizontal, fixed, e), s.w, s.h).Inflate(-overlapEps / 2).Overlaps(b) {
		return v
	}
	s.lg.work.runs++
	s.lg.work.skipped += (e - v) * dir
	return e
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
	// Cost rows are independent of each other — the legalizer's one
	// parallel scan; the flow solve itself is sequential. The matrix is
	// len(qubits)² entries of pure arithmetic, gated by ScanCells.
	costs := make([][]float64, len(qubits))
	pool := parallel.Gate(lg.pool, len(qubits)*len(qubits), lg.cut.ScanCells)
	pool.For(len(qubits), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			costs[i] = make([]float64, len(sites))
			for j, s := range sites {
				costs[i][j] = anchors[i].Dist2(s)
			}
		}
	})
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
			crowd[i] += len(lg.cm.ByInst[sid])
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
// first. One cluster means the resonator is integrated.
func ResonatorClusters(nl *component.Netlist, resIdx int) [][]int {
	segs := nl.Resonators[resIdx].Segments
	n := len(segs)
	// Union-find over positions in segs. size[root] counts the root's
	// members until the groups are carved, then holds its index in out.
	parent, size := make([]int, n), make([]int, n)
	rects := make([]geom.Rect, n)
	for i, s := range segs {
		parent[i] = i
		rects[i] = LegalRect(nl.Instances[s])
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range segs {
		for j := i + 1; j < n; j++ {
			if rects[i].Gap(rects[j]) <= clusterGap {
				parent[find(i)] = find(j)
			}
		}
	}
	for i := range segs {
		size[find(i)]++
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
		g := size[find(i)]
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
			cl := ResonatorClusters(lg.nl, rIdx)
			if len(cl) <= 1 {
				continue
			}
			main := cl[0]
			for _, frag := range cl[1:] {
				for _, sid := range frag {
					if lg.pullIn(sid, main, res) {
						main = append(main, sid)
					}
				}
			}
			if len(ResonatorClusters(lg.nl, rIdx)) > 1 {
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
	before := len(ResonatorClusters(lg.nl, in.Resonator))
	for _, cs := range anchors {
		anchor := lg.nl.Instances[cs].Pos
		for _, other := range lg.nl.Instances {
			if other.Kind != component.KindSegment || other.Resonator == in.Resonator {
				continue
			}
			// Chebyshev prefilter before the Euclidean test. Hypot(dx, dy)
			// is max·√(1+(min/max)²), never below max. For special values
			// it agrees with Max: +Inf if either axis is infinite, else NaN
			// if either is NaN. So this skips only what Dist rejects.
			d := other.Pos.Sub(anchor)
			if math.Max(math.Abs(d.X), math.Abs(d.Y)) > 2*step || other.Pos.Dist(anchor) > 2*step {
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
			if len(ResonatorClusters(lg.nl, other.Resonator)) == 1 &&
				len(ResonatorClusters(lg.nl, in.Resonator)) <= before &&
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
// reintroduces hotspots.
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
			if !lg.guardOK(in, spot) {
				continue
			}
			in.Pos = spot
			lg.fix(sid, LegalRect(in))
			if !lg.compactionSafe(sid) {
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

// compactionSafe checks the integrity and resonance guards for a segment at
// its current position. The resonance guard applies to exactly the
// segment's collision-map partners: segments of other resonators within Δc
// of it.
func (lg *legalizer) compactionSafe(sid int) bool {
	in := lg.nl.Instances[sid]
	if len(ResonatorClusters(lg.nl, in.Resonator)) != 1 {
		return false
	}
	for _, pid := range lg.cm.ByInst[sid] {
		if !guardedApart(lg.nl.Instances[pid].Pos, in.Pos, frequency.GuardMM(in.Kind)) {
			return false
		}
	}
	return true
}
