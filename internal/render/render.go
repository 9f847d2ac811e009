// Package render emits layout artefacts: SVG drawings with components
// colour-coded by frequency (the Fig. 14b view), meander resonator routing
// inside each resonator's reserved segment space (the Fig. 8e view), a
// GDS-like text export standing in for the paper's Qiskit Metal GDSII
// output (Fig. 14c), and TSV table writers for the experiment harness.
package render

import (
	"fmt"
	"io"
	"math"
	"strings"

	"qplacer/internal/component"
	"qplacer/internal/geom"
)

// freqColor maps a frequency within [lo, hi] onto a blue→red ramp.
func freqColor(f, lo, hi float64) string {
	t := 0.0
	if hi > lo {
		t = (f - lo) / (hi - lo)
	}
	t = math.Max(0, math.Min(1, t))
	r := int(40 + 200*t)
	b := int(240 - 200*t)
	return fmt.Sprintf("#%02x50%02x", r, b)
}

// SVG writes the placed netlist as an SVG document.
func SVG(w io.Writer, nl *component.Netlist) error {
	rects := nl.PaddedRects()
	enc, ok := geom.EnclosingRect(rects)
	if !ok {
		return fmt.Errorf("render: empty netlist")
	}
	enc = enc.Inflate(0.5)
	scale := 60.0 // px per mm
	width := enc.W() * scale
	height := enc.H() * scale
	toX := func(x float64) float64 { return (x - enc.Lo.X) * scale }
	toY := func(y float64) float64 { return (enc.Hi.Y - y) * scale }

	var qLo, qHi, rLo, rHi = math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	for _, in := range nl.Instances {
		if in.Kind == component.KindQubit {
			qLo = math.Min(qLo, in.FreqGHz)
			qHi = math.Max(qHi, in.FreqGHz)
		} else {
			rLo = math.Min(rLo, in.FreqGHz)
			rHi = math.Max(rHi, in.FreqGHz)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="#fafafa"/>`+"\n", width, height)

	// Segments first (under qubits), with reserved space shaded.
	for _, in := range nl.Instances {
		if in.Kind != component.KindSegment {
			continue
		}
		r := in.CoreRect()
		fmt.Fprintf(&b,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="0.55" stroke="#999" stroke-width="0.5"/>`+"\n",
			toX(r.Lo.X), toY(r.Hi.Y), r.W()*scale, r.H()*scale,
			freqColor(in.FreqGHz, rLo, rHi))
	}
	// Meander routing per resonator inside its cluster.
	for _, res := range nl.Resonators {
		path := MeanderPath(nl, res)
		if len(path) < 2 {
			continue
		}
		var pts []string
		for _, p := range path {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", toX(p.X), toY(p.Y)))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#333" stroke-width="1"/>`+"\n",
			strings.Join(pts, " "))
	}
	// Qubits.
	for _, in := range nl.Instances {
		if in.Kind != component.KindQubit {
			continue
		}
		pr := in.PaddedRect()
		fmt.Fprintf(&b,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#bbb" stroke-dasharray="3,3" stroke-width="0.5"/>`+"\n",
			toX(pr.Lo.X), toY(pr.Hi.Y), pr.W()*scale, pr.H()*scale)
		r := in.CoreRect()
		fmt.Fprintf(&b,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#222" stroke-width="1"/>`+"\n",
			toX(r.Lo.X), toY(r.Hi.Y), r.W()*scale, r.H()*scale,
			freqColor(in.FreqGHz, qLo, qHi))
		fmt.Fprintf(&b,
			`<text x="%.1f" y="%.1f" font-size="9" text-anchor="middle" fill="#fff">%d</text>`+"\n",
			toX(in.Pos.X), toY(in.Pos.Y)+3, in.Qubit)
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// MeanderPath returns a serpentine polyline through a resonator's segment
// blocks in chain order — the re-routing of the physical wire through its
// reserved space (Fig. 8e).
func MeanderPath(nl *component.Netlist, res *component.Resonator) []geom.Point {
	pts := make([]geom.Point, 0, len(res.Segments)*3)
	for i, sid := range res.Segments {
		in := nl.Instances[sid]
		c := in.Pos
		q := in.W / 4
		if i%2 == 0 {
			pts = append(pts,
				geom.Point{X: c.X - q, Y: c.Y - q},
				geom.Point{X: c.X - q, Y: c.Y + q},
				geom.Point{X: c.X + q, Y: c.Y + q},
				geom.Point{X: c.X + q, Y: c.Y - q})
		} else {
			pts = append(pts,
				geom.Point{X: c.X - q, Y: c.Y + q},
				geom.Point{X: c.X - q, Y: c.Y - q},
				geom.Point{X: c.X + q, Y: c.Y - q},
				geom.Point{X: c.X + q, Y: c.Y + q})
		}
	}
	return pts
}

// GDSText writes a human-readable GDSII-like stream: one polygon record per
// component (layer 1 = qubit metal, layer 2 = resonator blocks, layer 10 =
// meander centrelines), coordinates in integer nanometres as GDS databases
// use. It substitutes for the Qiskit Metal GDS export of Fig. 14c.
func GDSText(w io.Writer, nl *component.Netlist, name string) error {
	nm := func(v float64) int64 { return int64(math.Round(v * 1e6)) }
	var b strings.Builder
	fmt.Fprintf(&b, "HEADER 600\nBGNLIB\nLIBNAME %s.DB\nUNITS 1e-3 1e-9\nBGNSTR\nSTRNAME %s\n", name, name)
	emit := func(layer int, r geom.Rect) {
		fmt.Fprintf(&b, "BOUNDARY\nLAYER %d\nDATATYPE 0\nXY %d %d %d %d %d %d %d %d %d %d\nENDEL\n",
			layer,
			nm(r.Lo.X), nm(r.Lo.Y), nm(r.Hi.X), nm(r.Lo.Y),
			nm(r.Hi.X), nm(r.Hi.Y), nm(r.Lo.X), nm(r.Hi.Y),
			nm(r.Lo.X), nm(r.Lo.Y))
	}
	for _, in := range nl.Instances {
		layer := 1
		if in.Kind == component.KindSegment {
			layer = 2
		}
		emit(layer, in.CoreRect())
	}
	for _, res := range nl.Resonators {
		path := MeanderPath(nl, res)
		if len(path) < 2 {
			continue
		}
		fmt.Fprintf(&b, "PATH\nLAYER 10\nDATATYPE 0\nWIDTH %d\nXY", nm(0.01))
		for _, p := range path {
			fmt.Fprintf(&b, " %d %d", nm(p.X), nm(p.Y))
		}
		b.WriteString("\nENDEL\n")
	}
	b.WriteString("ENDSTR\nENDLIB\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Table writes a TSV table: header row then rows, all tab-separated.
func Table(w io.Writer, header []string, rows [][]string) error {
	var b strings.Builder
	b.WriteString(strings.Join(header, "\t"))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
