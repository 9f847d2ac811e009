// Benchmarks regenerating each table and figure of the paper's evaluation
// (each name carries its figure or table number). These use reduced
// mapping counts so `go test -bench=.` stays tractable; cmd/experiments
// runs the full-scale versions.
package qplacer

import (
	"context"
	"fmt"
	"io"
	"testing"

	"qplacer/internal/emsim"
	"qplacer/internal/physics"
)

func planFor(b *testing.B, topo string, sch Scheme) *PlanResult {
	b.Helper()
	plan, err := Plan(Options{Topology: topo, Scheme: sch})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkFig01_InfidelityVsArea: mean infidelity vs area per scheme.
func BenchmarkFig01_InfidelityVsArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sch := range []Scheme{SchemeQplacer, SchemeClassic, SchemeHuman} {
			plan := planFor(b, "grid", sch)
			ev, err := Evaluate(plan, "bv-4", 5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(plan.Metrics.Amer, fmt.Sprintf("Amer_mm2_%v", sch))
			b.ReportMetric(1-ev.MeanFidelity, fmt.Sprintf("infid_%v", sch))
		}
	}
}

// BenchmarkFig04_CouplingVsDetuning: the g/g_eff sweep of Fig. 4.
func BenchmarkFig04_CouplingVsDetuning(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for f2 := 4.6; f2 <= 5.4; f2 += 0.001 {
			sink += physics.InteractionStrengthMHz(
				physics.EngineeredCouplingMHz, (f2-5.0)*1e3)
		}
	}
	_ = sink
}

// BenchmarkFig05_QubitProximity: FD capacitance extraction per separation.
func BenchmarkFig05_QubitProximity(b *testing.B) {
	cfg := emsim.Config{PadWidth: 0.4, PadDepth: 0.4, EpsSub: physics.EpsSilicon,
		DomainW: 6, DomainH: 3, Cell: 0.05, MaxIter: 6000, Tol: 1e-6}
	for i := 0; i < b.N; i++ {
		cfg.Separation = 0.2
		if _, err := emsim.ExtractCp(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig06_ResonatorProximity: resonator coupling model sweep.
func BenchmarkFig06_ResonatorProximity(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for d := 0.05; d < 1.2; d += 0.001 {
			sink += physics.ResonatorParasiticCouplingMHz(6.5, 6.5, d, 1.0)
		}
	}
	_ = sink
}

// BenchmarkFig11_Fidelity: one benchmark×topology fidelity bar (both
// engines, shared mappings).
func BenchmarkFig11_Fidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pq := planFor(b, "grid", SchemeQplacer)
		pc := planFor(b, "grid", SchemeClassic)
		eq, err := Evaluate(pq, "bv-4", 5)
		if err != nil {
			b.Fatal(err)
		}
		ec, err := Evaluate(pc, "bv-4", 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(eq.MeanFidelity, "fid_qplacer")
		b.ReportMetric(ec.MeanFidelity, "fid_classic")
	}
}

// BenchmarkFig12_HotspotSummary: P_h and impacted qubits per scheme.
func BenchmarkFig12_HotspotSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pq := planFor(b, "falcon", SchemeQplacer)
		pc := planFor(b, "falcon", SchemeClassic)
		b.ReportMetric(pq.Metrics.Ph, "Ph_qplacer_pct")
		b.ReportMetric(pc.Metrics.Ph, "Ph_classic_pct")
		b.ReportMetric(float64(len(pq.Metrics.ImpactedQubits)), "impacted_qplacer")
		b.ReportMetric(float64(len(pc.Metrics.ImpactedQubits)), "impacted_classic")
	}
}

// BenchmarkFig13_AreaRatio: A_mer ratios vs Qplacer.
func BenchmarkFig13_AreaRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pq := planFor(b, "falcon", SchemeQplacer)
		ph := planFor(b, "falcon", SchemeHuman)
		b.ReportMetric(ph.Metrics.Amer/pq.Metrics.Amer, "human_over_qplacer")
	}
}

// BenchmarkFig14_FalconLayout: full Falcon placement + SVG + GDS export.
func BenchmarkFig14_FalconLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := planFor(b, "falcon", SchemeQplacer)
		if err := plan.WriteSVG(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := plan.WriteGDS(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15_SegmentSweep: the l_b sweep on one topology.
func BenchmarkFig15_SegmentSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lb := range []float64{0.2, 0.3, 0.4} {
			plan, err := Plan(Options{Topology: "grid", LB: lb})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(plan.Metrics.Utilization,
				fmt.Sprintf("util_lb%.1f", lb))
		}
	}
}

// BenchmarkTable2_Runtime: cells and per-iteration runtime per l_b.
func BenchmarkTable2_Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lb := range []float64{0.2, 0.3, 0.4} {
			plan, err := Plan(Options{Topology: "falcon", LB: lb})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(plan.NumCells), fmt.Sprintf("cells_lb%.1f", lb))
			b.ReportMetric(plan.AvgIterMS, fmt.Sprintf("ms_per_iter_lb%.1f", lb))
		}
	}
}

// BenchmarkEngineColdPlan: a fresh engine per iteration — every run rebuilds
// the device, assignment, netlist, and collision map and places from scratch.
// The baseline for BenchmarkEngineWarmPlan.
func BenchmarkEngineColdPlan(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		eng := New()
		if _, err := eng.Plan(ctx, WithTopology("grid")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWarmPlan: repeated Plan calls on one long-lived engine; the
// stage and plan caches make the warm call dramatically (far beyond the
// required 1.5×) faster than BenchmarkEngineColdPlan.
func BenchmarkEngineWarmPlan(b *testing.B) {
	ctx := context.Background()
	eng := New()
	if _, err := eng.Plan(ctx, WithTopology("grid")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Plan(ctx, WithTopology("grid")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEvaluateAll: the concurrent suite evaluation on a warm plan.
func BenchmarkEngineEvaluateAll(b *testing.B) {
	ctx := context.Background()
	eng := New()
	plan, err := eng.Plan(ctx, WithTopology("grid"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateAll(ctx, plan, Benchmarks(), 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFrequencyForce: the engine with and without the
// frequency force at identical hyperparameters (the core ablation).
func BenchmarkAblationFrequencyForce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pq := planFor(b, "grid", SchemeQplacer)
		pc := planFor(b, "grid", SchemeClassic)
		b.ReportMetric(pq.Metrics.Ph, "Ph_with_force")
		b.ReportMetric(pc.Metrics.Ph, "Ph_without_force")
	}
}

// BenchmarkAblationLegalization: global placement only vs full pipeline.
func BenchmarkAblationLegalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		raw, err := Plan(Options{Topology: "grid", SkipLegalize: true})
		if err != nil {
			b.Fatal(err)
		}
		full, err := Plan(Options{Topology: "grid"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(raw.Metrics.Ph, "Ph_global_only")
		b.ReportMetric(full.Metrics.Ph, "Ph_legalized")
	}
}
