package legal

import (
	"math/bits"

	"qplacer/internal/geom"
)

// The mask holds one bit per spiral offset, in maskSpan lines of maskWords
// words each.
const (
	maskSpan  = 2*maxRings + 1
	maskWords = (maskSpan + 63) / 64
	// firstRings is the radius a mask covers first; each widening grows it
	// by a quarter and one ring at least, up to maxRings.
	firstRings = 4
)

// blockMask is the exact set of spiral offsets whose probes placed rects
// block, for one findSpot call: the bit of offset (x, y) is set when the
// shrunk probe rect there overlaps the stored rect of a placed instance
// other than skip. The placed set does not change during the call, so its
// escalation levels share the mask.
//
// The probe's x edges depend only on coord(want.X, x) and its y edges only
// on coord(want.Y, y), and both are monotone, so the offsets one placed rect
// blocks are a product of two intervals (blockedRange). The mask is filled
// by ring bands as the walk reaches them: coverRings rasterizes every rect
// that can block a probe within the covered radius, so offsets inside it
// are exact.
type blockMask struct {
	want geom.Point
	w, h float64 // the instance's legal rect
	inv  float64 // 1/pitch, for interval estimates

	// The bits twice: rows[y'] holds bit x' of offset (x, y), cols[x'] bit
	// y', where x' = x+maxRings and y' = y+maxRings, so a walk along a ring
	// side reads whole words either way.
	rows, cols   []uint64
	rowLo, rowHi int // rows that may hold set bits (none when rowLo > rowHi)
	colLo, colHi int

	covered int    // offsets within this many rings are exact; -1 for none
	cells   [4]int // grid cells queried so far: x0, y0, x1, y1 (x1 < x0 for none)

	stamp   []uint32 // placed index → the epoch it was queried (or skipped) in
	epoch   uint32
	pending []int32 // queried placed rects that reach no covered probe yet
}

// beginMask empties lg.mask for a findSpot call around want. Instance
// skip's rect is marked as queried, so it never enters the mask.
func (lg *legalizer) beginMask(want geom.Point, skip int, w, h float64) {
	m := &lg.mask
	if m.rowLo <= m.rowHi {
		clear(m.rows[m.rowLo*maskWords : (m.rowHi+1)*maskWords])
		clear(m.cols[m.colLo*maskWords : (m.colHi+1)*maskWords])
	}
	m.rowLo, m.rowHi, m.colLo, m.colHi = maskSpan, -1, maskSpan, -1
	m.want, m.w, m.h, m.inv = want, w, h, 1/lg.pitch
	m.covered, m.cells = -1, [4]int{0, 0, -1, -1}
	m.pending = m.pending[:0]
	if m.epoch++; m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
	if skip >= 0 && lg.slot[skip] >= 0 {
		m.stamp[lg.slot[skip]] = m.epoch
	}
}

// line returns the bits along the side of a ring at fixed offset: row
// y = fixed when horizontal, else column x = fixed.
func (m *blockMask) line(horizontal bool, fixed int) []uint64 {
	i := (fixed + maxRings) * maskWords
	if horizontal {
		return m.rows[i : i+maskWords]
	}
	return m.cols[i : i+maskWords]
}

// nextFree returns the first offset from v toward to, stepping by dir,
// whose bit in line is clear, or to+dir when there is none.
func nextFree(line []uint64, v, to, dir int) int {
	i, end := v+maxRings, to+maxRings
	if dir > 0 {
		for ; i <= end; i = i | 63 + 1 {
			if free := ^line[i>>6] >> (i & 63); free != 0 {
				return min(i+bits.TrailingZeros64(free), end+1) - maxRings
			}
		}
		return to + 1
	}
	for ; i >= end; i = i&^63 - 1 {
		if free := ^line[i>>6] << (63 - i&63); free != 0 {
			return max(i-bits.LeadingZeros64(free), end-1) - maxRings
		}
	}
	return to - 1
}

// coverRings widens lg.mask's exact region to at least ring k. Every probe
// rect within the new radius r lies inside q, since its edges are monotone
// in the offset; a placed rect that overlaps a probe shares a grid cell
// with it, so with q, and overlaps q. q only grows, so the cell ranges
// nest: only the cells not queried before are read, and a rect that does
// not reach q yet waits in pending for a wider q.
func (lg *legalizer) coverRings(k int) {
	m := &lg.mask
	r := min(maxRings, max(k, m.covered+m.covered/4+1, firstRings))
	m.covered = r
	q := geom.Rect{
		Lo: geom.Point{X: lg.coord(m.want.X, -r) - m.w/2, Y: lg.coord(m.want.Y, -r) - m.h/2},
		Hi: geom.Point{X: lg.coord(m.want.X, r) + m.w/2, Y: lg.coord(m.want.Y, r) + m.h/2},
	}
	lg.work.queries++
	x0, y0, x1, y1 := lg.grid.Range(q)
	keep := m.pending[:0]
	for _, idx := range m.pending {
		if b := lg.placed[idx]; q.Overlaps(b) {
			lg.rasterize(b)
		} else {
			keep = append(keep, idx)
		}
	}
	m.pending = keep
	old := m.cells
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if old[0] <= x && x <= old[2] && old[1] <= y && y <= old[3] {
				x = old[2]
				continue
			}
			for _, idx := range lg.grid.Bucket(x, y) {
				if m.stamp[idx] == m.epoch {
					continue
				}
				m.stamp[idx] = m.epoch
				if b := lg.placed[idx]; q.Overlaps(b) {
					lg.rasterize(b)
				} else {
					m.pending = append(m.pending, idx)
				}
			}
		}
	}
	m.cells = [4]int{x0, y0, x1, y1}
}

// rasterize sets the mask bits of the offsets placed rect b blocks.
func (lg *legalizer) rasterize(b geom.Rect) {
	m := &lg.mask
	lg.work.rasterized++
	x0, x1 := lg.blockedRange(m.want.X, m.w, b.Lo.X, b.Hi.X)
	if x0 > x1 {
		return
	}
	y0, y1 := lg.blockedRange(m.want.Y, m.h, b.Lo.Y, b.Hi.Y)
	if y0 > y1 {
		return
	}
	x0, x1, y0, y1 = x0+maxRings, x1+maxRings, y0+maxRings, y1+maxRings
	fill(m.rows, y0, y1, x0, x1)
	fill(m.cols, x0, x1, y0, y1)
	m.rowLo, m.rowHi = min(m.rowLo, y0), max(m.rowHi, y1)
	m.colLo, m.colHi = min(m.colLo, x0), max(m.colHi, x1)
}

// fill sets bits lo..hi of lines from..to.
func fill(lines []uint64, from, to, lo, hi int) {
	wl, wh := lo>>6, hi>>6
	first, last := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-hi&63)
	if wl == wh {
		first &= last
		for l := from*maskWords + wl; l <= to*maskWords+wl; l += maskWords {
			lines[l] |= first
		}
		return
	}
	for l := from * maskWords; l <= to*maskWords; l += maskWords {
		lines[l+wl] |= first
		for w := wl + 1; w < wh; w++ {
			lines[l+w] = ^uint64(0)
		}
		lines[l+wh] |= last
	}
}

// probeLo and probeHi are the edges along one axis of the shrunk probe
// rect of the given size centred at coord(want, v): exactly the edges
// RectAt(…).Inflate(-overlapEps/2) gives it.
func (lg *legalizer) probeLo(want, size float64, v int) float64 {
	return lg.coord(want, v) - size/2 - -overlapEps/2
}

func (lg *legalizer) probeHi(want, size float64, v int) float64 {
	return lg.coord(want, v) + size/2 + -overlapEps/2
}

// blockedRange returns the offsets lo..hi within ±maxRings at which the
// shrunk probe of the given size centred at coord(want, v) overlaps
// [bLo, bHi] along one axis, by the two comparisons Overlaps makes along it.
// Both probe edges are monotone in v, so bLo < probeHi turns true once and
// probeLo < bHi turns false once as v grows, and the offsets where both
// hold form one interval. Each end starts from a closed-form estimate and
// moves until its comparison holds there and fails one step beyond, so
// rounding can only cost steps, never exactness. A NaN edge gives an empty
// range.
func (lg *legalizer) blockedRange(want, size, bLo, bHi float64) (lo, hi int) {
	k := maxRings
	half := (size - overlapEps) / 2
	// lo: the first offset whose high edge passes bLo.
	lo = floorOffset((bLo-half-want)*lg.mask.inv, -k-1, k) + 1
	for lo <= k && !(bLo < lg.probeHi(want, size, lo)) {
		lo++
	}
	for lo > -k && bLo < lg.probeHi(want, size, lo-1) {
		lo--
	}
	// hi: the last offset whose low edge lies below bHi.
	hi = floorOffset((bHi+half-want)*lg.mask.inv, -k-1, k)
	for hi >= -k && !(lg.probeLo(want, size, hi) < bHi) {
		hi--
	}
	for hi < k && lg.probeLo(want, size, hi+1) < bHi {
		hi++
	}
	return lo, hi
}

// floorOffset returns ⌊e⌋ clamped into lo..hi, and lo for NaN.
func floorOffset(e float64, lo, hi int) int {
	if !(e >= float64(lo)) {
		return lo
	}
	if e >= float64(hi) {
		return hi
	}
	return int(e-float64(lo)) + lo
}
