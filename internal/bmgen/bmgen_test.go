package bmgen

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"testing"
)

func encode(t *testing.T, s *Suite) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every family must generate a Validate-clean suite.
func TestGenerateFamilies(t *testing.T) {
	specs := []Spec{
		{Name: "g36", Family: FamilyGrid, Qubits: 36},
		{Name: "g3x7", Family: FamilyGrid, Rows: 3, Cols: 7},
		{Name: "x17", Family: FamilyXtree, Qubits: 17},
		{Name: "o2x5", Family: FamilyOctagon, Rows: 2, Cols: 5},
		{Name: "o40", Family: FamilyOctagon, Qubits: 40},
		{Name: "hb", Family: FamilyHummingbird},
		{Name: "r20", Family: FamilyRandom, Qubits: 20},
		{Name: "r20d4", Family: FamilyRandom, Qubits: 20, Degree: 4, Seed: 7},
		{Name: "g36w", Family: FamilyGrid, Qubits: 36, Workloads: true},
		{Name: "g36d", Family: FamilyGrid, Qubits: 36, FreqScheme: SchemeDSATUR},
	}
	for _, spec := range specs {
		s, err := Generate(spec)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if s.Topology.Name != spec.Name {
			t.Errorf("%s: topology named %q", spec.Name, s.Topology.Name)
		}
	}
}

func TestGenerateSizes(t *testing.T) {
	s, err := Generate(Spec{Name: "hb", Family: FamilyHummingbird})
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology.NumQubits != 65 || len(s.Topology.Edges) != 72 {
		t.Errorf("hummingbird suite: %d qubits, %d edges", s.Topology.NumQubits, len(s.Topology.Edges))
	}
	if len(s.Frequencies.QubitGHz) != 65 || len(s.Frequencies.ResonatorGHz) != 72 {
		t.Errorf("frequency vectors sized %d/%d", len(s.Frequencies.QubitGHz), len(s.Frequencies.ResonatorGHz))
	}
	if s.AreaMM[0] <= 0 || s.AreaMM[0] != s.AreaMM[1] {
		t.Errorf("derived area %v is not a positive square", s.AreaMM)
	}
}

// Same spec, same process: byte-identical output.
func TestGenerateDeterministicSameProcess(t *testing.T) {
	spec := Spec{Name: "det", Family: FamilyRandom, Qubits: 24, Seed: 42, Workloads: true}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Error("two generations of the same spec differ")
	}
}

// Same spec, two fresh processes: byte-identical output. The test re-executes
// its own binary in helper mode; each child generates the suite from scratch
// with no shared in-process state.
func TestGenerateDeterministicSubprocess(t *testing.T) {
	if os.Getenv("BMGEN_HELPER") == "1" {
		s, err := Generate(Spec{Name: "det", Family: FamilyRandom, Qubits: 24, Seed: 42, Workloads: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := s.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		cmd := exec.Command(exe, "-test.run=TestGenerateDeterministicSubprocess")
		cmd.Env = append(os.Environ(), "BMGEN_HELPER=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("helper process: %v", err)
		}
		return out
	}
	first, second := run(), run()
	if len(first) == 0 || !bytes.Equal(first, second) {
		t.Errorf("subprocess outputs differ (%d vs %d bytes)", len(first), len(second))
	}
}

// Different seeds must diverge — and still both be Validate-clean.
func TestDifferentSeedsDiverge(t *testing.T) {
	base := Spec{Name: "seeds", Family: FamilyRandom, Qubits: 24}
	s1 := base
	s1.Seed = 1
	s2 := base
	s2.Seed = 2
	a, err := Generate(s1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(t, a), encode(t, b)) {
		t.Error("seeds 1 and 2 generated identical suites")
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
	if err := b.Validate(); err != nil {
		t.Error(err)
	}
}

// Property test: randomized bounded specs never panic; accepted specs yield
// Validate-clean suites that survive a JSON round trip byte for byte.
func TestPropertyRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	families := []string{FamilyGrid, FamilyXtree, FamilyOctagon, FamilyHummingbird, FamilyRandom}
	xtreeSizes := []int{5, 17, 53}
	accepted := 0
	for i := 0; i < 60; i++ {
		spec := Spec{
			Name:   fmt.Sprintf("prop-%d", i),
			Family: families[rng.Intn(len(families))],
			Seed:   rng.Int63n(1 << 30),
		}
		switch spec.Family {
		case FamilyXtree:
			spec.Qubits = xtreeSizes[rng.Intn(len(xtreeSizes))]
		case FamilyHummingbird:
		case FamilyRandom:
			spec.Qubits = 4 + rng.Intn(60)
			if rng.Intn(2) == 0 {
				spec.Degree = 2 + rng.Float64()*2
			}
		default:
			if rng.Intn(2) == 0 {
				// Octagons cost 8 qubits per cell; keep the bound small so the
				// O(n²) collision recomputation stays fast.
				spec.Rows = 1 + rng.Intn(3)
				spec.Cols = 1 + rng.Intn(3)
			} else {
				spec.Qubits = 8 * (1 + rng.Intn(6)) // valid for both grid and octagon
			}
		}
		if rng.Intn(2) == 0 {
			spec.FreqScheme = SchemeDSATUR
		}
		spec.Workloads = rng.Intn(2) == 0

		s, err := Generate(spec)
		if err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("spec %d (%+v): unexpected error class %v", i, spec, err)
			}
			continue
		}
		accepted++
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %d (%+v): %v", i, spec, err)
		}
		raw := encode(t, s)
		back, err := ReadSuite(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("spec %d: round trip: %v", i, err)
		}
		if !bytes.Equal(raw, encode(t, back)) {
			t.Fatalf("spec %d: JSON round trip is not byte-stable", i)
		}
	}
	if accepted < 40 {
		t.Errorf("only %d/60 random specs accepted; the generator is too restrictive", accepted)
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "x"},
		{Name: "x", Family: "torus", Qubits: 9},
		{Name: "x", Family: FamilyGrid},
		{Name: "x", Family: FamilyGrid, Qubits: 9, Rows: 3, Cols: 3},
		{Name: "x", Family: FamilyGrid, Rows: 3},
		{Name: "x", Family: FamilyGrid, Qubits: 9, Degree: 3},
		{Name: "x", Family: FamilyGrid, Qubits: MaxQubits + 1},
		{Name: "x", Family: FamilyRandom, Qubits: 3},
		{Name: "x", Family: FamilyRandom, Qubits: 10, Degree: 1},
		{Name: "x", Family: FamilyRandom, Qubits: 10, Degree: 10},
		{Name: "x", Family: FamilyHummingbird, Qubits: 64},
		{Name: "x", Family: FamilyXtree, Rows: 2, Cols: 2},
		{Name: "x", Family: FamilyGrid, Qubits: 9, FreqScheme: "rainbow"},
		{Name: "x", Family: FamilyGrid, Qubits: 9, DeltaC: -1},
		{Name: "x", Family: FamilyGrid, Qubits: 9, LB: -1},
		{Name: "x", Family: FamilyGrid, Qubits: 9, LB: 1e-6},
		{Name: "x", Family: FamilyGrid, Qubits: 9, AreaMM: [2]float64{10, 0}},
	}
	for i, spec := range bad {
		if _, err := spec.Normalize(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("bad spec %d (%+v): err = %v, want ErrInvalidSpec", i, spec, err)
		}
	}
	// Generation-time rejections (spec normalizes, family resolution fails).
	if _, err := Generate(Spec{Name: "x", Family: FamilyXtree, Qubits: 21}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("xtree-21 generation: err = %v, want ErrInvalidSpec", err)
	}
	if _, err := Generate(Spec{Name: "x", Family: FamilyOctagon, Qubits: 12}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("octagon 12-qubit generation: err = %v, want ErrInvalidSpec", err)
	}
}

func TestHashIgnoresDefaulting(t *testing.T) {
	implicit, err := Spec{Name: "h", Family: FamilyGrid, Qubits: 25}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Spec{
		Name: "h", Family: FamilyGrid, Qubits: 25,
		FreqScheme: SchemeIsolation, DeltaC: 0.1, LB: 0.3, Seed: 1,
	}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Error("defaulted and explicit-default specs must hash equal")
	}
	other, err := Spec{Name: "h", Family: FamilyGrid, Qubits: 25, Seed: 2}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if other == implicit {
		t.Error("different seeds must hash differently")
	}
}

func TestReadSuiteRejectsUnknownFields(t *testing.T) {
	if _, err := ReadSuite(bytes.NewReader([]byte(`{"schema_version":1,"bogus":true}`))); !errors.Is(err, ErrInvalidSuite) {
		t.Errorf("unknown field: err = %v, want ErrInvalidSuite", err)
	}
}

// The isolation scheme must reproduce what the engine derives for the same
// connectivity, so recorded frequencies are interchangeable with pipeline
// state. (The suite stores the assignment of topology.Parse's device.)
func TestValidateCatchesTampering(t *testing.T) {
	s, err := Generate(Spec{Name: "tamper", Family: FamilyGrid, Qubits: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Suite)
	}{
		{"spec hash", func(s *Suite) { s.Spec.Seed = 99 }},
		{"qubit freq out of band", func(s *Suite) { s.Frequencies.QubitGHz[0] = 9.9 }},
		{"collision pairs", func(s *Suite) { s.Collisions.Pairs = append(s.Collisions.Pairs, [2]int{0, 1}) }},
		{"instance count", func(s *Suite) { s.Collisions.NumInstances++ }},
		{"area too small", func(s *Suite) { s.AreaMM = [2]float64{0.1, 0.1} }},
		{"edge out of range", func(s *Suite) { s.Topology.Edges[0] = [2]int{0, 999} }},
		{"schema version", func(s *Suite) { s.SchemaVersion = 2 }},
		{"lb off the spec", func(s *Suite) { s.Collisions.LBmm = 1e-9 }},
		{"delta_c off the spec", func(s *Suite) { s.Frequencies.DeltaCGHz = 5 }},
	}
	for _, tc := range cases {
		cp, err := ReadSuite(bytes.NewReader(encode(t, s)))
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(cp)
		if err := cp.Validate(); !errors.Is(err, ErrInvalidSuite) {
			t.Errorf("%s: err = %v, want ErrInvalidSuite", tc.name, err)
		}
	}
}
