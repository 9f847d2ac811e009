package place

import (
	"qplacer/internal/component"
	"qplacer/internal/geom"
)

// HumanResult describes the manual baseline layout.
type HumanResult struct {
	Region geom.Rect // bounding region of the layout
	PitchX float64   // qubit grid pitch (mm)
}

// PlaceHuman builds the manually optimized, crosstalk-free baseline of
// §V-B: qubits sit on their canonical 2-D grid coordinates at a pitch that
// reserves a full resonator channel between neighbours,
//
//	D = L·d_r / (L_q + 2·d_q),   pitch = (L_q + 2·d_q) + D,
//
// and each resonator's segments are strung tightly along the channel between
// its endpoint qubits. The layout is crosstalk-free by construction (every
// pair of distinct components keeps its padding) at the cost of a much
// larger substrate (Fig. 13).
func PlaceHuman(nl *component.Netlist) *HumanResult {
	cfg := nl.Config
	dev := nl.Device

	// Mean resonator length sets the channel width.
	var meanL float64
	for _, r := range nl.Resonators {
		meanL += r.LengthMM
	}
	if len(nl.Resonators) > 0 {
		meanL /= float64(len(nl.Resonators))
	}
	paddedQubit := cfg.QubitSize + 2*cfg.QubitPad
	channel := meanL * cfg.ResonatorPad / paddedQubit // D of §V-B
	pitch := paddedQubit + channel

	// Canonical coordinates are laid out at unit pitch; scale them.
	for q, instID := range nl.QubitInst {
		c := dev.Coords[q]
		nl.Instances[instID].Pos = geom.Point{X: c.X * pitch, Y: c.Y * pitch}
	}

	// Segments: pack each resonator's chain along the middle of its channel
	// (between the padded qubit boundaries), tightly spaced. Same-resonator
	// overlap is physically meaningless (it is one meandered wire) and is
	// excluded from every crosstalk metric.
	for _, res := range nl.Resonators {
		pa := nl.Instances[nl.QubitInst[res.QubitA]].Pos
		pb := nl.Instances[nl.QubitInst[res.QubitB]].Pos
		dir := pb.Sub(pa)
		dist := dir.Norm()
		if dist == 0 {
			dist = 1e-9
		}
		unit := dir.Scale(1 / dist)
		// Usable span: from the edge of qubit A's padded cell to qubit B's.
		startOff := paddedQubit/2 + cfg.ResonatorPad
		span := dist - 2*startOff
		if span < cfg.SegmentSize {
			span = cfg.SegmentSize
		}
		k := len(res.Segments)
		for s, sid := range res.Segments {
			var t float64
			if k > 1 {
				t = float64(s) / float64(k-1)
			} else {
				t = 0.5
			}
			off := startOff + t*span
			if off > dist-startOff {
				off = dist - startOff
			}
			nl.Instances[sid].Pos = pa.Add(unit.Scale(off))
		}
	}

	rects := nl.PaddedRects()
	region, _ := geom.EnclosingRect(rects)
	return &HumanResult{Region: region, PitchX: pitch}
}
