package render

import (
	"strings"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

func netlist(t *testing.T) *component.Netlist {
	t.Helper()
	dev := topology.Grid25()
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range nl.Instances {
		in.Pos = geom.Point{X: float64(i%25) * 0.8, Y: float64(i/25) * 0.8}
	}
	return nl
}

func TestSVGWellFormed(t *testing.T) {
	nl := netlist(t)
	var b strings.Builder
	if err := SVG(&b, nl); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("SVG not well-formed")
	}
	if strings.Count(out, "<rect") < nl.NumCells() {
		t.Fatal("missing component rects")
	}
	if !strings.Contains(out, "<polyline") {
		t.Fatal("missing meander polylines")
	}
}

func TestGDSTextStructure(t *testing.T) {
	nl := netlist(t)
	var b strings.Builder
	if err := GDSText(&b, nl, "test"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, tok := range []string{"HEADER", "STRNAME test", "BOUNDARY", "PATH", "ENDLIB"} {
		if !strings.Contains(out, tok) {
			t.Fatalf("GDS missing %s", tok)
		}
	}
	if strings.Count(out, "BOUNDARY") != nl.NumCells() {
		t.Fatalf("boundary count %d != cells %d", strings.Count(out, "BOUNDARY"), nl.NumCells())
	}
}

func TestMeanderPathCoversSegments(t *testing.T) {
	nl := netlist(t)
	res := nl.Resonators[0]
	path := MeanderPath(nl, res)
	if len(path) != 4*len(res.Segments) {
		t.Fatalf("path points = %d, want 4 per segment", len(path))
	}
}

func TestTable(t *testing.T) {
	var b strings.Builder
	err := Table(&b, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != "a\tb\n1\t2\n3\t4\n" {
		t.Fatalf("table = %q", b.String())
	}
}
