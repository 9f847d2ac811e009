package topology

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The parametric families must hit the reference pipeline's sweep sizes
// (grid-4/25/64, hummingbird-65, Aspen-11/M as octagons, xtree-5/17/53).
func TestParseFamilySizes(t *testing.T) {
	cases := []struct {
		name   string
		qubits int
		edges  int
	}{
		{"grid-4", 4, 4},
		{"grid-25", 25, 40},
		{"grid-64", 64, 112},
		{"grid-3x7", 21, 32},
		{"octagon-1x5", 40, 48},
		{"octagon-2x5", 80, 106},
		{"octagon-5x8", 320, 454},
		{"xtree-5", 5, 4},
		{"xtree-17", 17, 16},
		{"xtree-53", 53, 52},
		{"hummingbird-65", 65, 72},
	}
	for _, tc := range cases {
		d, err := Parse(tc.name)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.name, err)
			continue
		}
		if d.Name != tc.name {
			t.Errorf("Parse(%q).Name = %q", tc.name, d.Name)
		}
		if d.NumQubits != tc.qubits || d.NumEdges() != tc.edges {
			t.Errorf("%s: %d qubits / %d edges, want %d / %d",
				tc.name, d.NumQubits, d.NumEdges(), tc.qubits, tc.edges)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// Every built-in alias must be structurally identical to its canonical
// parametric member: same edges, same coordinates, only the Name differs.
func TestAliasesMatchCanonical(t *testing.T) {
	for alias, canonical := range Aliases() {
		a, err := ByName(alias)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		c, err := ByName(canonical)
		if err != nil {
			t.Fatalf("%s: %v", canonical, err)
		}
		if a.NumQubits != c.NumQubits {
			t.Errorf("%s vs %s: %d vs %d qubits", alias, canonical, a.NumQubits, c.NumQubits)
		}
		if !reflect.DeepEqual(a.Edges(), c.Edges()) {
			t.Errorf("%s vs %s: edge sets differ", alias, canonical)
		}
		if !reflect.DeepEqual(a.Coords, c.Coords) {
			t.Errorf("%s vs %s: coordinates differ", alias, canonical)
		}
	}
}

func TestParseRejectsBadNames(t *testing.T) {
	for _, name := range []string{
		"grid", "grid-", "grid-1", "grid-0x5", "grid-9999999", "grid-axb",
		"xtree-4", "xtree-21", "xtree-0", "xtree-9999999",
		"octagon-0x5", "octagon-99x99",
		"hummingbird-64", "falcon-27", "warbler-9", "",
	} {
		if _, err := Parse(name); !errors.Is(err, ErrUnknown) {
			t.Errorf("Parse(%q) = %v, want ErrUnknown", name, err)
		}
	}
}

func TestByNameFallsBackToParser(t *testing.T) {
	d, err := ByName("grid-36")
	if err != nil || d.Name != "grid-36" || d.NumQubits != 36 {
		t.Fatalf("ByName(grid-36) = %v, %v", d, err)
	}
	if _, err := ByName("grid-notanumber"); !errors.Is(err, ErrUnknown) {
		t.Errorf("bad parametric name must wrap ErrUnknown, got %v", err)
	}
}

func TestXtreeScheduleSeries(t *testing.T) {
	wantSizes := []int{5, 17, 53, 161}
	for i, want := range wantSizes {
		if got := XtreeSize(XtreeSchedule(i + 1)); got != want {
			t.Errorf("depth %d: %d qubits, want %d", i+1, got, want)
		}
	}
	// Depth 3 must keep the legacy 4-4-2 branching.
	if got := XtreeSchedule(3); !reflect.DeepEqual(got, []int{4, 4, 2}) {
		t.Errorf("depth-3 schedule = %v, want the legacy [4 4 2]", got)
	}
}

func TestHummingbirdHeavyHexInvariants(t *testing.T) {
	d := Hummingbird65()
	for q := 0; q < d.NumQubits; q++ {
		if deg := d.Graph.Degree(q); deg > 3 {
			t.Errorf("qubit %d degree %d > 3", q, deg)
		}
	}
	if !bipartite(d.Graph) {
		t.Error("heavy-hex lattice must be bipartite")
	}
	if !d.Graph.Connected() {
		t.Error("disconnected")
	}
}

func TestCatalog(t *testing.T) {
	infos := Catalog()
	byName := map[string]Info{}
	for _, in := range infos {
		if in.Qubits <= 0 || in.Edges <= 0 {
			t.Errorf("%s: empty counts %+v", in.Name, in)
		}
		byName[in.Name] = in
	}
	for alias, canonical := range Aliases() {
		in, ok := byName[alias]
		if !ok {
			t.Fatalf("catalog is missing built-in %q", alias)
		}
		if in.Canonical != canonical {
			t.Errorf("%s: canonical = %q, want %q", alias, in.Canonical, canonical)
		}
	}
	hb, ok := byName["hummingbird-65"]
	if !ok || hb.Qubits != 65 {
		t.Errorf("catalog must list hummingbird-65 (got %+v, present %v)", hb, ok)
	}
	if g := byName["grid"]; g.Family != "grid" || g.Qubits != 25 || g.Edges != 40 {
		t.Errorf("grid entry = %+v", g)
	}
	if x := byName["xtree"]; x.Canonical != "xtree-53" {
		t.Errorf("xtree must report its canonical parametric name, got %+v", x)
	}
}

func TestFamiliesCatalogueResolvesExamples(t *testing.T) {
	for _, f := range Families() {
		if f.Schema == "" || f.Description == "" || len(f.Examples) == 0 {
			t.Errorf("family %q underspecified: %+v", f.Name, f)
		}
		for _, ex := range f.Examples {
			if !strings.HasPrefix(ex, f.Name+"-") {
				t.Errorf("family %q example %q has the wrong prefix", f.Name, ex)
			}
			if _, err := Parse(ex); err != nil {
				t.Errorf("family %q example %q does not parse: %v", f.Name, ex, err)
			}
		}
	}
}
