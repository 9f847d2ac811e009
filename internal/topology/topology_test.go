package topology

import (
	"testing"

	"qplacer/internal/geom"
	"qplacer/internal/graph"
)

// bipartite reports whether g admits a 2-colouring, by BFS from every
// uncoloured vertex.
func bipartite(g *graph.Graph) bool {
	color := make([]int, g.N())
	for s := range color {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, v := range g.Neighbors(u) {
				switch color[v] {
				case 0:
					color[v] = -color[u]
					queue = append(queue, v)
				case color[u]:
					return false
				}
			}
		}
	}
	return true
}

// Table I ground truth: qubit and coupling counts per topology.
func TestTableICounts(t *testing.T) {
	cases := []struct {
		dev    *Device
		qubits int
		edges  int
	}{
		{Grid25(), 25, 40},
		{Falcon27(), 27, 28},
		{Eagle127(), 127, 144},
		{Aspen11(), 40, 48},
		{AspenM(), 80, 106},
		{Xtree53(), 53, 52},
	}
	for _, tc := range cases {
		if tc.dev.NumQubits != tc.qubits {
			t.Errorf("%s: %d qubits, want %d", tc.dev.Name, tc.dev.NumQubits, tc.qubits)
		}
		if got := tc.dev.NumEdges(); got != tc.edges {
			t.Errorf("%s: %d edges, want %d", tc.dev.Name, got, tc.edges)
		}
	}
}

func TestAllDevicesValidateAndConnect(t *testing.T) {
	for _, d := range All() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if !d.Graph.Connected() {
			t.Errorf("%s: disconnected", d.Name)
		}
	}
}

func TestHeavyHexDegreeBound(t *testing.T) {
	// Heavy-hex lattices have maximum degree 3.
	for _, d := range []*Device{Falcon27(), Eagle127()} {
		for q := 0; q < d.NumQubits; q++ {
			if deg := d.Graph.Degree(q); deg > 3 {
				t.Errorf("%s: qubit %d degree %d > 3", d.Name, q, deg)
			}
		}
	}
}

func TestHeavyHexBipartite(t *testing.T) {
	for _, d := range []*Device{Grid25(), Falcon27(), Eagle127(), Xtree53()} {
		if !bipartite(d.Graph) {
			t.Errorf("%s: expected bipartite", d.Name)
		}
	}
}

func TestOctagonDegrees(t *testing.T) {
	// Octagon lattice qubits have degree 2 (ring only) or 3 (ring + one
	// inter-octagon link).
	for _, d := range []*Device{Aspen11(), AspenM()} {
		for q := 0; q < d.NumQubits; q++ {
			deg := d.Graph.Degree(q)
			if deg < 2 || deg > 3 {
				t.Errorf("%s: qubit %d degree %d outside [2,3]", d.Name, q, deg)
			}
		}
	}
}

func TestXtreeIsTree(t *testing.T) {
	d := Xtree53()
	if d.NumEdges() != d.NumQubits-1 {
		t.Fatalf("xtree edges = %d, want n-1 = %d", d.NumEdges(), d.NumQubits-1)
	}
	// Root (qubit 0) has degree 4; leaves have degree 1; exactly 32 leaves.
	if d.Graph.Degree(0) != 4 {
		t.Errorf("root degree = %d, want 4", d.Graph.Degree(0))
	}
	leaves := 0
	for q := 0; q < d.NumQubits; q++ {
		if d.Graph.Degree(q) == 1 {
			leaves++
		}
	}
	if leaves != 32 {
		t.Errorf("leaves = %d, want 32", leaves)
	}
}

func TestFalconPendants(t *testing.T) {
	// The published Falcon map has six degree-1 qubits: 0, 6, 9, 17, 20, 26.
	d := Falcon27()
	want := map[int]bool{0: true, 6: true, 9: true, 17: true, 20: true, 26: true}
	for q := 0; q < d.NumQubits; q++ {
		isPendant := d.Graph.Degree(q) == 1
		if isPendant != want[q] {
			t.Errorf("qubit %d: pendant = %v, want %v", q, isPendant, want[q])
		}
	}
}

func TestCoordsMatchEdgesRoughly(t *testing.T) {
	// Coupled qubits must be near each other in the canonical drawing
	// (sanity for the Human baseline): for the grid-like devices at unit
	// pitch, every edge spans at most 2.5 units.
	for _, d := range []*Device{Grid25(), Falcon27(), Eagle127(), Aspen11(), AspenM()} {
		for _, e := range d.Edges() {
			dist := d.Coords[e[0]].Dist(d.Coords[e[1]])
			if dist > 2.5 {
				t.Errorf("%s: edge %v spans %.2f units", d.Name, e, dist)
			}
		}
	}
}

func TestEagleRowStructure(t *testing.T) {
	d := Eagle127()
	// Count qubits per y level: long rows at even negative y, connectors odd.
	rows := map[float64]int{}
	for _, p := range d.Coords {
		rows[p.Y]++
	}
	wantRows := map[float64]int{
		0: 14, -2: 15, -4: 15, -6: 15, -8: 15, -10: 15, -12: 14,
		-1: 4, -3: 4, -5: 4, -7: 4, -9: 4, -11: 4,
	}
	for y, n := range wantRows {
		if rows[y] != n {
			t.Errorf("eagle row y=%v has %d qubits, want %d", y, rows[y], n)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"grid", "falcon", "eagle", "aspen11", "aspenm", "xtree"} {
		d, err := ByName(name)
		if err != nil || d.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestValidateCatchesDuplicateCoords(t *testing.T) {
	d := Grid25()
	d.Coords[1] = d.Coords[0]
	if err := d.Validate(); err == nil {
		t.Error("duplicate coordinates must fail validation")
	}
}

func TestValidateCatchesSizeMismatch(t *testing.T) {
	d := Grid25()
	d.Coords = d.Coords[:10]
	if err := d.Validate(); err == nil {
		t.Error("coordinate count mismatch must fail validation")
	}
}

func TestEdgesSortedAndInRange(t *testing.T) {
	for _, d := range All() {
		edges := d.Edges()
		for i, e := range edges {
			if e[0] >= e[1] || e[0] < 0 || e[1] >= d.NumQubits {
				t.Errorf("%s: bad edge %v", d.Name, e)
			}
			if i > 0 && (edges[i-1][0] > e[0] ||
				(edges[i-1][0] == e[0] && edges[i-1][1] > e[1])) {
				t.Errorf("%s: edges not sorted at %d", d.Name, i)
			}
		}
	}
}

func TestCanonicalSpanIsFinite(t *testing.T) {
	for _, d := range All() {
		rects := make([]geom.Rect, len(d.Coords))
		for i, p := range d.Coords {
			rects[i] = geom.RectAt(p, 0.1, 0.1)
		}
		enc, ok := geom.EnclosingRect(rects)
		if !ok || enc.Area() <= 0 {
			t.Errorf("%s: degenerate canonical span", d.Name)
		}
	}
}
