package qplacer

import (
	"context"
	"strings"
	"testing"
)

func TestPlanDefaults(t *testing.T) {
	plan, err := New().Plan(context.Background(), WithOptions(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Device.Name != "grid" {
		t.Fatalf("default topology = %s", plan.Device.Name)
	}
	if plan.Options.LB != 0.3 || plan.Options.DeltaC != 0.1 {
		t.Fatalf("defaults not applied: %+v", plan.Options)
	}
	if plan.NumCells < 400 {
		t.Fatalf("cells = %d, implausibly few", plan.NumCells)
	}
	if plan.Metrics.Amer <= 0 || plan.Metrics.Utilization <= 0 {
		t.Fatalf("degenerate metrics %+v", plan.Metrics)
	}
}

func TestPlanUnknownTopology(t *testing.T) {
	if _, err := New().Plan(context.Background(), WithOptions(Options{Topology: "bogus"})); err == nil {
		t.Fatal("unknown topology must error")
	}
}

// The paper's three headline claims, in miniature (grid topology):
// Qplacer beats Classic on hotspots and fidelity; Human is hotspot-free.
func TestHeadlineShape(t *testing.T) {
	pq, err := New().Plan(context.Background(), WithOptions(Options{Topology: "grid"}))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := New().Plan(context.Background(), WithOptions(Options{Topology: "grid", Scheme: SchemeClassic}))
	if err != nil {
		t.Fatal(err)
	}
	ph, err := New().Plan(context.Background(), WithOptions(Options{Topology: "grid", Scheme: SchemeHuman}))
	if err != nil {
		t.Fatal(err)
	}
	if pq.Metrics.Ph >= pc.Metrics.Ph {
		t.Errorf("Ph: qplacer %.3f must beat classic %.3f", pq.Metrics.Ph, pc.Metrics.Ph)
	}
	if ph.Metrics.Ph > 0.01 {
		t.Errorf("human layout Ph = %.3f, want ≈0", ph.Metrics.Ph)
	}
	eq, err := New().Evaluate(context.Background(), pq, "bv-4", 10)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := New().Evaluate(context.Background(), pc, "bv-4", 10)
	if err != nil {
		t.Fatal(err)
	}
	if eq.MeanFidelity <= ec.MeanFidelity {
		t.Errorf("fidelity: qplacer %.4f must beat classic %.4f",
			eq.MeanFidelity, ec.MeanFidelity)
	}
}

func TestEvaluateUnknownBenchmark(t *testing.T) {
	plan, err := New().Plan(context.Background(), WithOptions(Options{Topology: "grid", SkipLegalize: true, MaxIters: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Evaluate(context.Background(), plan, "nope-3", 5); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestBenchmarkAndTopologyLists(t *testing.T) {
	if len(Benchmarks()) != 8 {
		t.Fatalf("benchmarks = %v", Benchmarks())
	}
	if len(Topologies()) != 6 {
		t.Fatalf("topologies = %v", Topologies())
	}
}

func TestRenderOutputs(t *testing.T) {
	plan, err := New().Plan(context.Background(), WithOptions(Options{Topology: "grid", SkipLegalize: true, MaxIters: 5}))
	if err != nil {
		t.Fatal(err)
	}
	var svg strings.Builder
	if err := plan.WriteSVG(&svg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") || !strings.Contains(svg.String(), "</svg>") {
		t.Fatal("malformed SVG output")
	}
	var gds strings.Builder
	if err := plan.WriteGDS(&gds); err != nil {
		t.Fatal(err)
	}
	for _, token := range []string{"HEADER", "BOUNDARY", "ENDLIB"} {
		if !strings.Contains(gds.String(), token) {
			t.Fatalf("GDS output missing %s", token)
		}
	}
}

func TestSegmentSizeChangesCellCount(t *testing.T) {
	small, err := New().Plan(context.Background(), WithOptions(Options{Topology: "grid", LB: 0.2, SkipLegalize: true, MaxIters: 5}))
	if err != nil {
		t.Fatal(err)
	}
	large, err := New().Plan(context.Background(), WithOptions(Options{Topology: "grid", LB: 0.4, SkipLegalize: true, MaxIters: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if small.NumCells <= large.NumCells {
		t.Fatalf("lb=0.2 cells %d must exceed lb=0.4 cells %d",
			small.NumCells, large.NumCells)
	}
	ratio := float64(small.NumCells) / float64(large.NumCells)
	if ratio < 2.5 || ratio > 4.5 {
		t.Fatalf("cell ratio %.2f outside Table II's ≈3.5×", ratio)
	}
}
