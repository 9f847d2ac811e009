package qplacer

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// A parametric family name must run the full pipeline without registration.
func TestPlanParametricTopology(t *testing.T) {
	t.Parallel()
	plan, err := New().Plan(context.Background(), WithOptions(Options{Topology: "grid-9", MaxIters: 40}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Device.NumQubits != 9 {
		t.Fatalf("grid-9 plan placed %d qubits", plan.Device.NumQubits)
	}
	rep, err := Validate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid {
		t.Fatalf("grid-9 plan invalid: %+v", rep)
	}
}

// A generated suite must register end-to-end: its topology drives the full
// pipeline, its workloads evaluate like built-in benchmarks.
func TestGeneratedSuiteRegisterAndPlan(t *testing.T) {
	t.Parallel()
	suite, err := GenerateBenchmark(SuiteSpec{
		Name:      "gen-e2e",
		Family:    SuiteFamilyRandom,
		Qubits:    12,
		Seed:      5,
		Workloads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Register(); err != nil {
		t.Fatal(err)
	}
	plan, err := New().Plan(context.Background(), WithOptions(Options{Topology: "gen-e2e", MaxIters: 40}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Device.NumQubits != 12 {
		t.Fatalf("suite plan placed %d qubits", plan.Device.NumQubits)
	}
	if len(suite.Workloads) == 0 {
		t.Fatal("suite generated no workloads")
	}
	ev, err := New().Evaluate(context.Background(), plan, suite.Workloads[0].Name, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MeanFidelity <= 0 || ev.MeanFidelity > 1 {
		t.Fatalf("workload fidelity %v out of (0, 1]", ev.MeanFidelity)
	}
	// Registering the same suite twice must fail loudly, not half-register.
	if err := suite.Register(); !errors.Is(err, ErrDuplicateTopology) {
		t.Fatalf("second Register: %v, want ErrDuplicateTopology", err)
	}
}

func TestLoadSuiteRoundTrip(t *testing.T) {
	t.Parallel()
	suite, err := GenerateBenchmark(SuiteSpec{Name: "gen-rt", Family: SuiteFamilyGrid, Qubits: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSuite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SpecHash != suite.SpecHash || loaded.Topology.NumQubits != 16 {
		t.Fatalf("round trip mangled the suite: %+v", loaded.Suite)
	}
	if _, err := LoadSuite(bytes.NewReader([]byte("{"))); !errors.Is(err, ErrInvalidSuite) {
		t.Errorf("truncated input: %v, want ErrInvalidSuite", err)
	}
	if _, err := GenerateBenchmark(SuiteSpec{Name: "bad", Family: "torus", Qubits: 9}); !errors.Is(err, ErrInvalidSuiteSpec) {
		t.Errorf("bad family: %v, want ErrInvalidSuiteSpec", err)
	}
}

func TestTopologyCatalogSurfaces(t *testing.T) {
	t.Parallel()
	infos := TopologyCatalog()
	byName := map[string]TopologyInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	for _, name := range Topologies() {
		in, ok := byName[name]
		if !ok {
			t.Fatalf("catalog is missing Table I topology %q", name)
		}
		if in.Qubits <= 0 || in.Edges <= 0 {
			t.Errorf("%s: empty counts %+v", name, in)
		}
	}
	if g := byName["grid"]; g.Canonical != "grid-25" {
		t.Errorf("grid canonical = %q, want grid-25", g.Canonical)
	}
	// ResolveTopology resolves registered and parametric names alike, and
	// wraps ErrUnknownTopology otherwise.
	for name, qubits := range map[string]int{"grid": 25, "grid-3x7": 21, "hummingbird-65": 65} {
		in, err := ResolveTopology(name)
		if err != nil || in.Qubits != qubits || in.Edges <= 0 {
			t.Errorf("ResolveTopology(%q) = %+v, %v; want %d qubits", name, in, err, qubits)
		}
	}
	for _, name := range []string{"warbler", "grid-0", "xtree-21", "octagon-12"} {
		if _, err := ResolveTopology(name); !errors.Is(err, ErrUnknownTopology) {
			t.Errorf("ResolveTopology(%q) err = %v, want ErrUnknownTopology", name, err)
		}
	}
	fams := TopologyFamilies()
	if len(fams) == 0 {
		t.Fatal("no topology families")
	}
	for _, f := range fams {
		if f.Schema == "" || len(f.Examples) == 0 {
			t.Errorf("family %q underspecified: %+v", f.Name, f)
		}
	}
	bms := BenchmarkCatalog()
	seen := map[string]int{}
	for _, b := range bms {
		seen[b.Name] = b.Qubits
	}
	for _, name := range Benchmarks() {
		if q, ok := seen[name]; !ok || q <= 0 {
			t.Errorf("benchmark catalog entry for %q: qubits %d, present %v", name, q, ok)
		}
	}
}
