package legal

import (
	"math"
	"math/rand"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/geom"
)

// probeBlocks is the per-probe test the mask replaces: whether the shrunk
// probe rect at offset (x, y) around want overlaps the stored rect b.
func probeBlocks(lg *legalizer, want geom.Point, w, h float64, x, y int, b geom.Rect) bool {
	c := geom.Point{X: lg.coord(want.X, x), Y: lg.coord(want.Y, y)}
	return geom.RectAt(c, w, h).Inflate(-overlapEps / 2).Overlaps(b)
}

// maskBit reads the mask's bit of offset (x, y) from its row, after
// checking that its column holds the same bit.
func maskBit(t *testing.T, lg *legalizer, x, y int) bool {
	t.Helper()
	bit := func(line []uint64, i int) bool { return line[(i+maxRings)>>6]>>((i+maxRings)&63)&1 != 0 }
	row, col := bit(lg.mask.line(true, y), x), bit(lg.mask.line(false, x), y)
	if row != col {
		t.Fatalf("offset (%d, %d): row bit %v, column bit %v", x, y, row, col)
	}
	return row
}

// TestBlockedMaskMatchesOverlap holds the blocked-offset mask to the
// per-probe overlap test. Random trials check each blocked interval pair
// on a box one offset larger than it, and along the whole of each axis,
// with rect edges placed exactly on probe edges, where a closed-form
// estimate rounds either way. A small layout then builds whole masks the
// way findSpot does, ring band by ring band, and compares every bit of the
// lattice, for targets in and around it, far out (±1e300) and non-finite,
// with and without a skipped instance, and after a rect is re-fixed
// elsewhere between searches.
func TestBlockedMaskMatchesOverlap(t *testing.T) {
	nl := &component.Netlist{}
	for i := 0; i < 48; i++ {
		nl.Instances = append(nl.Instances, &component.Instance{
			ID: i, Kind: component.KindSegment, Resonator: i, W: 0.3, H: 0.3, Pad: 0.1,
		})
	}
	lg := newTestLegalizer(t, nl, geom.Rect{Hi: geom.Point{X: 6, Y: 6}})
	rng := rand.New(rand.NewSource(5))
	k := maxRings
	inLattice := func(v int) bool { return -k <= v && v <= k }
	unbounded := geom.Rect{Lo: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}, Hi: geom.Point{X: math.Inf(1), Y: math.Inf(1)}}

	onEdge := 0
	for trial := 0; trial < 20000; trial++ {
		lg.pitch = 0.05 + 0.25*rng.Float64()
		want := geom.Point{X: 100 * (rng.Float64() - 0.5), Y: 100 * (rng.Float64() - 0.5)}
		w, h := 0.2+1.3*rng.Float64(), 0.2+1.3*rng.Float64()
		lg.beginMask(want, -1, w, h)
		// b's edges: near the probes' edges at random offsets, or exactly on
		// them, so that b touches the probe beyond each end without overlap.
		edges := func(c, size float64) (lo, hi float64) {
			v1 := rng.Intn(2*k+21) - k - 10
			v2 := v1 + rng.Intn(12) - 1
			if rng.Intn(2) == 0 {
				onEdge++
				return lg.probeHi(c, size, v1), lg.probeLo(c, size, v2)
			}
			return lg.coord(c, v1) + size*(rng.Float64()-0.5), lg.coord(c, v2) + size*(rng.Float64()-0.5)
		}
		var b geom.Rect
		b.Lo.X, b.Hi.X = edges(want.X, w)
		b.Lo.Y, b.Hi.Y = edges(want.Y, h)
		x0, x1 := lg.blockedRange(want.X, w, b.Lo.X, b.Hi.X)
		y0, y1 := lg.blockedRange(want.Y, h, b.Lo.Y, b.Hi.Y)
		for x := x0 - 1; x <= x1+1; x++ {
			for y := y0 - 1; y <= y1+1; y++ {
				if !inLattice(x) || !inLattice(y) {
					continue
				}
				in := x0 <= x && x <= x1 && y0 <= y && y <= y1
				if got := probeBlocks(lg, want, w, h, x, y, b); got != in {
					t.Fatalf("trial %d: offset (%d, %d) blocked %v, interval pair [%d,%d]×[%d,%d] says %v (want %v, %g×%g, b %v)",
						trial, x, y, got, x0, x1, y0, y1, in, want, w, h, b)
				}
			}
		}
		// Each axis on its own: b unbounded along the other.
		bx, by := unbounded, unbounded
		bx.Lo.X, bx.Hi.X = b.Lo.X, b.Hi.X
		by.Lo.Y, by.Hi.Y = b.Lo.Y, b.Hi.Y
		for v := -k; v <= k; v++ {
			if got, in := probeBlocks(lg, want, w, h, v, 0, bx), x0 <= v && v <= x1; got != in {
				t.Fatalf("trial %d: x offset %d blocked %v, interval [%d,%d] says %v", trial, v, got, x0, x1, in)
			}
			if got, in := probeBlocks(lg, want, w, h, 0, v, by), y0 <= v && v <= y1; got != in {
				t.Fatalf("trial %d: y offset %d blocked %v, interval [%d,%d] says %v", trial, v, got, y0, y1, in)
			}
		}
	}
	if onEdge < 10000 {
		t.Fatalf("only %d rect edges lay on probe edges", onEdge)
	}

	// Whole masks over a small layout at the real pitch.
	lg = newTestLegalizer(t, nl, geom.Rect{Hi: geom.Point{X: 6, Y: 6}})
	for id, in := range nl.Instances[:len(nl.Instances)-2] {
		in.Pos = geom.Point{X: 1 + 4*rng.Float64(), Y: 1 + 4*rng.Float64()}
		lg.fix(id, LegalRect(in))
	}
	// One rect far out, where a ±1e300 target's probes all collapse onto
	// one point; the last instance stays unplaced.
	far := nl.Instances[len(nl.Instances)-2]
	far.Pos, far.W, far.H = geom.Point{X: 1e300, Y: 3}, 1e290, 1
	lg.fix(far.ID, LegalRect(far))
	unplaced := len(nl.Instances) - 1

	w, h := 0.4, 0.4
	// onProbeEdges re-stores placed instance id so that its edges lie
	// exactly on the edges of the probes around want.
	onProbeEdges := func(id int, want geom.Point) {
		idx := lg.slot[id]
		b := geom.Rect{
			Lo: geom.Point{X: lg.probeHi(want.X, w, 2), Y: lg.probeHi(want.Y, h, -3)},
			Hi: geom.Point{X: lg.probeLo(want.X, w, 6), Y: lg.probeLo(want.Y, h, 1)},
		}
		lg.grid.Remove(int32(idx), lg.placed[idx])
		lg.placed[idx] = b
		lg.grid.Add(int32(idx), b)
	}
	nan, inf := math.NaN(), math.Inf(1)
	wants := []geom.Point{
		{X: 3, Y: 3}, {X: 1.05, Y: 4.95}, {X: 5.5, Y: 0.2}, {X: 3.3, Y: 2.7},
		{X: 1e300, Y: 3}, {X: -1e300, Y: -1e300}, {X: 3, Y: 1e300},
		{X: nan, Y: 3}, {X: 3, Y: nan}, {X: inf, Y: 3}, {X: 3, Y: -inf}, {X: -inf, Y: inf},
	}
	blockedBits := 0
	check := func(want geom.Point, skip int, what string) {
		t.Helper()
		// blocks is the per-probe test over every placed rect but skip's.
		blocks := func(x, y int) bool {
			for idx, b := range lg.placed {
				if lg.order[idx] != skip && probeBlocks(lg, want, w, h, x, y, b) {
					return true
				}
			}
			return false
		}
		lg.beginMask(want, skip, w, h)
		for ring := 0; ring <= k; ring++ {
			if ring <= lg.mask.covered {
				continue
			}
			lg.coverRings(ring)
			// Offsets within the covered rings are exact before the walk
			// reaches further.
			if r := lg.mask.covered; r < 30 {
				for x := -r; x <= r; x++ {
					for y := -r; y <= r; y++ {
						if m, p := maskBit(t, lg, x, y), blocks(x, y); m != p {
							t.Fatalf("%s: want %v, skip %d: mask bit (%d, %d) = %v with %d rings covered, per-probe test %v", what, want, skip, x, y, m, r, p)
						}
					}
				}
			}
		}
		type interval struct{ x0, x1, y0, y1 int }
		iv := make([]interval, len(lg.placed))
		for idx, b := range lg.placed {
			e := &iv[idx]
			e.x0, e.x1 = lg.blockedRange(want.X, w, b.Lo.X, b.Hi.X)
			e.y0, e.y1 = lg.blockedRange(want.Y, h, b.Lo.Y, b.Hi.Y)
		}
		for x := -k; x <= k; x++ {
			for y := -k; y <= k; y++ {
				any := false
				for idx, b := range lg.placed {
					got := probeBlocks(lg, want, w, h, x, y, b)
					e := iv[idx]
					if in := e.x0 <= x && x <= e.x1 && e.y0 <= y && y <= e.y1; got != in {
						t.Fatalf("%s: want %v: offset (%d, %d) against placed rect %d blocked %v, interval pair says %v",
							what, want, x, y, idx, got, in)
					}
					any = any || got && lg.order[idx] != skip
				}
				if m := maskBit(t, lg, x, y); m != any {
					t.Fatalf("%s: want %v, skip %d: mask bit (%d, %d) = %v, per-probe test %v", what, want, skip, x, y, m, any)
				}
				if any {
					blockedBits++
				}
			}
		}
	}
	for _, want := range wants {
		// The instance nearest the target, moved so that it blocks probes
		// right at the target, as the skipped instance.
		near := 0
		for id := range nl.Instances[:unplaced-1] {
			if nl.Instances[id].Pos.Dist2(want) < nl.Instances[near].Pos.Dist2(want) {
				near = id
			}
		}
		onProbeEdges(near, want)
		for _, skip := range []int{-1, near, far.ID, unplaced} {
			check(want, skip, "layout")
		}
		// Re-fix the nearest instance elsewhere between searches, then back.
		in := nl.Instances[near]
		old := in.Pos
		for _, to := range []geom.Point{{X: old.X + 0.37, Y: old.Y - 0.21}, old} {
			in.Pos = to
			lg.fix(near, LegalRect(in))
			check(want, -1, "re-fixed")
			check(want, near, "re-fixed")
		}
	}
	if blockedBits < 50000 {
		t.Fatalf("only %d blocked offsets over all masks: the layout is too sparse", blockedBits)
	}
}
