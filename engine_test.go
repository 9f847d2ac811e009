package qplacer

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"qplacer/internal/testutil"
	"qplacer/internal/topology"
)

// fastOpts keeps engine tests quick: few iterations, no legalization.
func fastOpts() []Option {
	return []Option{WithTopology("grid"), WithMaxIters(5), WithSkipLegalize(true)}
}

func TestEngineSentinelErrors(t *testing.T) {
	eng := New()
	ctx := context.Background()

	if _, err := eng.Plan(ctx, WithTopology("bogus")); !errors.Is(err, ErrUnknownTopology) {
		t.Fatalf("unknown topology err = %v, want ErrUnknownTopology", err)
	}
	if _, err := eng.Plan(ctx, WithScheme(Scheme(99))); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("unknown scheme err = %v, want ErrUnknownScheme", err)
	}
	plan, err := eng.Plan(ctx, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(ctx, plan, "nope-3", 5); !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("unknown benchmark err = %v, want ErrUnknownBenchmark", err)
	}
	// Legacy wrappers classify identically.
	if _, err := Plan(Options{Topology: "bogus"}); !errors.Is(err, ErrUnknownTopology) {
		t.Fatalf("legacy Plan err = %v, want ErrUnknownTopology", err)
	}
}

func TestEngineOptionMerging(t *testing.T) {
	eng := New(WithTopology("falcon"), WithMaxIters(5), WithSkipLegalize(true))
	plan, err := eng.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Device.Name != "falcon" {
		t.Fatalf("engine default topology not applied: %s", plan.Device.Name)
	}
	// Per-call override wins without disturbing engine defaults.
	plan2, err := eng.Plan(context.Background(), WithTopology("grid"))
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Device.Name != "grid" {
		t.Fatalf("per-call topology override not applied: %s", plan2.Device.Name)
	}
	plan3, err := eng.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Device.Name != "falcon" {
		t.Fatalf("engine defaults mutated by per-call override: %s", plan3.Device.Name)
	}
}

func TestEngineWarmPlanIsCachedAndDeterministic(t *testing.T) {
	ctx := context.Background()
	cold := New()
	p1, err := cold.Plan(ctx, WithTopology("grid"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cold.Plan(ctx, WithTopology("grid"))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("warm Plan must return the cached result")
	}

	// A separate cold engine reproduces identical metrics (same seed).
	fresh := New()
	p3, err := fresh.Plan(ctx, WithTopology("grid"))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Metrics.Amer != p3.Metrics.Amer ||
		p1.Metrics.Ph != p3.Metrics.Ph ||
		p1.Metrics.Utilization != p3.Metrics.Utilization ||
		p1.PlaceIterations != p3.PlaceIterations {
		t.Fatalf("warm/cold metrics diverge: %+v vs %+v", p1.Metrics, p3.Metrics)
	}
	for i, in := range p1.Netlist.Instances {
		if in.Pos != p3.Netlist.Instances[i].Pos {
			t.Fatalf("instance %d position diverges: %v vs %v",
				i, in.Pos, p3.Netlist.Instances[i].Pos)
		}
	}

	// Different options miss the plan cache but share the stage cache.
	p4, err := cold.Plan(ctx, WithTopology("grid"), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("different seed must produce a distinct plan")
	}
	if p4.Device != p1.Device {
		t.Fatal("stage cache must reuse the device across seeds")
	}
}

func TestEngineEvaluateMatchesLegacyAndFixesEdgeCases(t *testing.T) {
	ctx := context.Background()
	eng := New()
	plan, err := eng.Plan(ctx, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eng.Evaluate(ctx, plan, "bv-4", 7)
	if err != nil {
		t.Fatal(err)
	}
	if ev.NumMappings != 7 {
		t.Fatalf("NumMappings = %d, want 7", ev.NumMappings)
	}
	// The old MinFidelity = 2 sentinel must never leak.
	if ev.MinFidelity < 0 || ev.MinFidelity > 1 {
		t.Fatalf("MinFidelity = %v outside [0,1]", ev.MinFidelity)
	}
	if ev.MaxFidelity < ev.MinFidelity || ev.MeanFidelity < ev.MinFidelity ||
		ev.MeanFidelity > ev.MaxFidelity {
		t.Fatalf("inconsistent stats %+v", ev)
	}
	// Legacy wrapper returns the same numbers.
	legacy, err := Evaluate(plan, "bv-4", 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(legacy.MeanFidelity-ev.MeanFidelity) > 1e-15 {
		t.Fatalf("legacy Evaluate diverges: %v vs %v", legacy.MeanFidelity, ev.MeanFidelity)
	}
}

func TestEnginePlanCancellation(t *testing.T) {
	eng := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Plan(ctx, WithTopology("grid"))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v must keep context.Canceled in the chain", err)
	}

	// Mid-placement deadline: the loop must notice within one iteration, so
	// the call returns far sooner than the seconds a full run takes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = eng.Plan(ctx2, WithTopology("eagle"))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("deadline err = %v, want ErrCancelled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation honoured only after %v", elapsed)
	}
}

func TestEvaluateAll(t *testing.T) {
	ctx := context.Background()
	eng := New(WithWorkers(4))
	plan, err := eng.Plan(ctx, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	benches := []string{"bv-4", "qaoa-4", "ising-4", "qgan-4"}
	batch, err := eng.EvaluateAll(ctx, plan, benches, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(benches) {
		t.Fatalf("results = %d, want %d", len(batch.Results), len(benches))
	}
	var mean float64
	for i, r := range batch.Results {
		if r == nil || r.Benchmark != benches[i] {
			t.Fatalf("result %d = %+v, want benchmark %s in order", i, r, benches[i])
		}
		mean += r.MeanFidelity
		if batch.MinFidelity > r.MinFidelity || batch.MaxFidelity < r.MaxFidelity {
			t.Fatalf("aggregate extremes inconsistent with %+v", r)
		}
	}
	mean /= float64(len(benches))
	if math.Abs(batch.MeanFidelity-mean) > 1e-12 {
		t.Fatalf("aggregate mean %v, recomputed %v", batch.MeanFidelity, mean)
	}
	if batch.TotalMappings != 4*5 {
		t.Fatalf("TotalMappings = %d, want 20", batch.TotalMappings)
	}

	// Concurrent batch results match sequential evaluation exactly.
	for i, r := range batch.Results {
		seq, err := eng.Evaluate(ctx, plan, benches[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		if seq.MeanFidelity != r.MeanFidelity {
			t.Fatalf("%s: batch %v vs sequential %v", benches[i], r.MeanFidelity, seq.MeanFidelity)
		}
	}
}

func TestEvaluateAllPropagatesRootCause(t *testing.T) {
	ctx := context.Background()
	eng := New(WithWorkers(2))
	plan, err := eng.Plan(ctx, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.EvaluateAll(ctx, plan, []string{"bv-4", "nope-3", "qaoa-4"}, 3)
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("err = %v, want ErrUnknownBenchmark", err)
	}
}

func TestEvaluateAllDefaultSuite(t *testing.T) {
	ctx := context.Background()
	eng := New()
	plan, err := eng.Plan(ctx, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.EvaluateAll(ctx, plan, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) < len(Benchmarks()) {
		t.Fatalf("default suite evaluated %d benchmarks, want at least the %d built-ins",
			len(batch.Results), len(Benchmarks()))
	}
}

// TestEngineConcurrentUse hammers one engine from many goroutines; run under
// `go test -race` this doubles as the data-race check for the shared caches.
func TestEngineConcurrentUse(t *testing.T) {
	ctx := context.Background()
	eng := New(WithWorkers(4))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plan, err := eng.Plan(ctx, fastOpts()...)
			if err != nil {
				errs <- err
				return
			}
			if _, err := eng.EvaluateAll(ctx, plan, []string{"bv-4", "ising-4"}, 3); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCustomTopologyFlowsThroughEngine(t *testing.T) {
	// Registered through the same internal registry the built-ins use.
	name := testutil.UniqueName(t)
	err := topology.Register(name, func() *topology.Device {
		spec := TopologySpec{
			Name:        name,
			Description: "8-qubit line",
			NumQubits:   8,
			Edges:       [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}},
			Coords: [][2]float64{
				{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0},
			},
		}
		d, err := buildDevice(spec)
		if err != nil {
			panic(err)
		}
		return d
	})
	if err != nil {
		t.Fatal(err)
	}

	eng := New()
	ctx := context.Background()
	plan, err := eng.Plan(ctx, WithTopology(name))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Device.Name != name || plan.Device.NumQubits != 8 {
		t.Fatalf("custom device not used: %+v", plan.Device)
	}
	if plan.Metrics == nil || plan.Metrics.Amer <= 0 {
		t.Fatalf("degenerate metrics for custom topology: %+v", plan.Metrics)
	}
	ev, err := eng.Evaluate(ctx, plan, "bv-4", 5)
	if err != nil {
		t.Fatal(err)
	}
	// A crowded 8-qubit line can bottom out at fidelity 0 (same-level qubits
	// within resonance range), so only the envelope is asserted.
	if ev.NumMappings != 5 || ev.MeanFidelity < 0 || ev.MeanFidelity > 1 {
		t.Fatalf("degenerate evaluation on custom topology: %+v", ev)
	}
}

func TestRegisterTopologyAndBenchmarkSpecs(t *testing.T) {
	topoName := testutil.UniqueName(t)
	spec := TopologySpec{
		Name:        topoName,
		Description: "triangle",
		NumQubits:   3,
		Edges:       [][2]int{{0, 1}, {1, 2}, {2, 0}},
		Coords:      [][2]float64{{0, 0}, {1, 0}, {0.5, 1}},
	}
	if err := RegisterTopology(spec); err != nil {
		t.Fatal(err)
	}
	if err := RegisterTopology(spec); !errors.Is(err, ErrDuplicateTopology) {
		t.Fatalf("duplicate topology err = %v, want ErrDuplicateTopology", err)
	}
	bad := spec
	bad.Name = testutil.UniqueName(t)
	bad.Coords = bad.Coords[:2]
	if err := RegisterTopology(bad); err == nil {
		t.Fatal("mismatched coords must fail validation")
	}

	bench := BenchmarkSpec{
		Name:      testutil.UniqueName(t),
		NumQubits: 2,
		Gates: []GateSpec{
			{Name: "h", Qubits: []int{0}},
			{Name: "cz", Qubits: []int{0, 1}},
		},
	}
	if err := RegisterBenchmark(bench); err != nil {
		t.Fatal(err)
	}
	if err := RegisterBenchmark(bench); !errors.Is(err, ErrDuplicateBenchmark) {
		t.Fatalf("duplicate benchmark err = %v, want ErrDuplicateBenchmark", err)
	}
	badBench := bench
	badBench.Name = testutil.UniqueName(t)
	badBench.Gates = []GateSpec{{Name: "cz", Qubits: []int{0, 5}}}
	if err := RegisterBenchmark(badBench); err == nil {
		t.Fatal("out-of-range gate must fail validation")
	}

	found := false
	for _, name := range RegisteredTopologies() {
		if name == topoName {
			found = true
		}
	}
	if !found {
		t.Fatal("RegisteredTopologies missing the new entry")
	}
}

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]Scheme{
		"qplacer": SchemeQplacer, "classic": SchemeClassic, "human": SchemeHuman,
	} {
		got, err := ParseScheme(name)
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("ParseScheme bogus err = %v, want ErrUnknownScheme", err)
	}
}

// TestConcurrentEnginesPlanIdentically plans on two engines at once, so
// `go test -race` covers engines that share the stage registries and the
// package-level tables while each runs its own placement, and both must
// produce the same layout.
func TestConcurrentEnginesPlanIdentically(t *testing.T) {
	ctx := context.Background()
	opts := Options{Topology: "grid", MaxIters: 20}
	var wg sync.WaitGroup
	results := make([]*PlanResult, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = New().Plan(ctx, WithOptions(opts))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	for i, in := range results[0].Netlist.Instances {
		if other := results[1].Netlist.Instances[i]; in.Pos != other.Pos {
			t.Fatalf("concurrent engines diverged at instance %d: %v vs %v", i, in.Pos, other.Pos)
		}
	}
}
