package legal

import (
	"context"
	"sort"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
)

// maxGuardTries bounds how far the row-scan slides an instance forward in
// search of a frequency-guarded spot before giving up and placing it
// unguarded (counted in GuardFallbacks, measured by P_h).
const maxGuardTries = 400

// RowScanCtx legalizes with a greedy shelf/row-scan sweep — the classic
// Tetris-family alternative to the integration-aware spiral+flow legalizer of
// LegalizeCtx. Placement units (single qubits and whole resonator chains) are
// processed bottom-to-top, left-to-right by their global-placement centroids
// and packed onto shelves: each unit lands at the row cursor, rows grow
// upward when full. Chains are packed contiguously by construction, so
// resonator integration comes for free as long as a chain fits on few
// shelves. With FrequencyAware set, the cursor slides forward past spots that
// would violate the isolation guard against already-placed collision-map
// partners (guardClear); residual fallbacks are counted like LegalizeCtx's.
//
// The layout is overlap-free by construction (the cursor only advances and
// shelves are disjoint bands), at the cost of larger displacement than
// LegalizeCtx — the greedy trade-off.
func RowScanCtx(ctx context.Context, nl *component.Netlist, region geom.Rect, cm *frequency.CollisionMap, cfg Config) (*Result, error) {
	if err := checkCollisionMap(nl, cm); err != nil {
		return nil, err
	}
	res := &Result{}
	bounds := region.Inflate(region.W() * 0.02)

	// Placement units: qubits alone, resonators as whole chains, ordered by
	// the centroid of their global placement (rows bottom-to-top, then left
	// to right) so the sweep roughly preserves the optimized layout.
	type unit struct {
		ids []int
		key geom.Point
	}
	units := make([]unit, 0, len(nl.QubitInst)+len(nl.Resonators))
	for _, qi := range nl.QubitInst {
		units = append(units, unit{ids: []int{qi}, key: nl.Instances[qi].Pos})
	}
	for _, r := range nl.Resonators {
		var c geom.Point
		for _, sid := range r.Segments {
			c = c.Add(nl.Instances[sid].Pos)
		}
		c = c.Scale(1 / float64(len(r.Segments)))
		units = append(units, unit{ids: r.Segments, key: c})
	}
	sort.SliceStable(units, func(a, b int) bool {
		if units[a].key.Y != units[b].key.Y {
			return units[a].key.Y < units[b].key.Y
		}
		return units[a].key.X < units[b].key.X
	})

	placed := frequency.NewPartnerGrid(cm, nil, bounds, func(i int) float64 { return frequency.GuardMM(nl.Instances[i].Kind) })
	clearAt := func(in *component.Instance, c geom.Point) bool {
		return !cfg.FrequencyAware || guardClear(nl, placed, in, c)
	}

	cursorX := bounds.Lo.X
	baseY := bounds.Lo.Y
	shelfH := 0.0
	newShelf := func() {
		baseY += shelfH
		shelfH = 0
		cursorX = bounds.Lo.X
	}
	scanTimer := cfg.Span.Child("scan").Start()
	for done, u := range units {
		if err := ctx.Err(); err != nil {
			scanTimer.End()
			return nil, err
		}
		for _, id := range u.ids {
			in := nl.Instances[id]
			r := LegalRect(in)
			w, h := r.W(), r.H()
			if cursorX+w > bounds.Hi.X && cursorX > bounds.Lo.X {
				newShelf()
			}
			if !clearAt(in, geom.Point{X: cursorX + w/2, Y: baseY + h/2}) {
				ok := false
				for try := 0; try < maxGuardTries; try++ {
					cursorX += pitch
					if cursorX+w > bounds.Hi.X {
						newShelf()
					}
					if clearAt(in, geom.Point{X: cursorX + w/2, Y: baseY + h/2}) {
						ok = true
						break
					}
				}
				if !ok {
					res.GuardFallbacks++
				}
			}
			spot := geom.Point{X: cursorX + w/2, Y: baseY + h/2}
			if in.Kind == component.KindQubit {
				res.QubitDisplacement += spot.Dist(in.Pos)
			} else {
				res.SegmentDisplacement += spot.Dist(in.Pos)
			}
			in.Pos = spot
			placed.Add(id, spot)
			cursorX += w
			if h > shelfH {
				shelfH = h
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(done+1, len(units))
		}
	}
	scanTimer.End()

	var clusters clusterCounter
	for rIdx := range nl.Resonators {
		if clusters.count(nl, rIdx) > 1 {
			res.BrokenResonators = append(res.BrokenResonators, rIdx)
		}
	}
	res.IntegratedAll = len(res.BrokenResonators) == 0
	return res, nil
}
