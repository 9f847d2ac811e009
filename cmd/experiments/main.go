// Command experiments regenerates every table and figure of the paper's
// evaluation (-fig and -table select one by its number). Results are
// printed and written as TSV under -out (default results/).
//
// Usage:
//
//	experiments -fig 11            # one figure
//	experiments -table 2           # one table
//	experiments -all               # everything (minutes)
//	experiments -quick             # reduced mappings / small topologies
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"qplacer"
	"qplacer/internal/emsim"
	"qplacer/internal/obs"
	"qplacer/internal/physics"
	"qplacer/internal/render"
)

var (
	outDir  = flag.String("out", "results", "output directory for TSV files")
	quick   = flag.Bool("quick", false, "reduced workload (fewer mappings, small topologies)")
	fig     = flag.Int("fig", 0, "regenerate one figure (1,4,5,6,11,12,13,14,15)")
	table   = flag.Int("table", 0, "regenerate one table (1,2)")
	all     = flag.Bool("all", false, "regenerate everything")
	devFlag = flag.String("topologies", "", "comma-free list override, e.g. 'grid falcon'")
	version = flag.Bool("version", false, "print build/version info and exit")
)

// eng is shared by every figure: its stage and plan caches mean each
// topology×scheme placement runs once no matter how many figures use it.
var eng = qplacer.New()

// ctx carries Ctrl-C cancellation into the placement hot loops.
var ctx = context.Background()

func topologies() []string {
	if *devFlag != "" {
		return strings.Fields(*devFlag)
	}
	if *quick {
		return []string{"grid", "falcon", "xtree"}
	}
	return qplacer.Topologies()
}

func mappings() int {
	if *quick {
		return 10
	}
	return 50
}

func writeTSV(name string, header []string, rows [][]string) {
	path := filepath.Join(*outDir, name)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := render.Table(f, header, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func plans(topo string) map[string]*qplacer.PlanResult {
	out := map[string]*qplacer.PlanResult{}
	for name, sch := range map[string]qplacer.Scheme{
		"qplacer": qplacer.SchemeQplacer,
		"classic": qplacer.SchemeClassic,
		"human":   qplacer.SchemeHuman,
	} {
		p, err := eng.Plan(ctx, qplacer.WithTopology(topo), qplacer.WithScheme(sch))
		if err != nil {
			log.Fatal(err)
		}
		out[name] = p
	}
	return out
}

// fig4: interaction strength vs ω2 sweep (two connected transmons).
func fig4() {
	var rows [][]string
	for f2 := 4.6; f2 <= 5.41; f2 += 0.02 {
		det := (f2 - 5.0) * 1e3
		gInt := physics.InteractionStrengthMHz(physics.EngineeredCouplingMHz, det)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", f2), fmt.Sprintf("%.4f", gInt),
		})
	}
	writeTSV("fig04_coupling_vs_detuning.tsv",
		[]string{"omega2_GHz", "g_interaction_MHz"}, rows)
}

// fig5: Cp, g, g_eff vs qubit separation, model + FD extractor.
func fig5() {
	cfg := emsim.Config{PadWidth: 0.4, PadDepth: 0.4, EpsSub: physics.EpsSilicon,
		DomainW: 6, DomainH: 3, Cell: 0.05, MaxIter: 8000, Tol: 1e-6}
	var rows [][]string
	for _, d := range []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.2, 1.6, 2.0} {
		cp := physics.ParasiticCapQubitFF(d)
		g := physics.QubitParasiticCouplingMHz(5.0, 5.0, d)
		gEff := physics.EffectiveCouplingMHz(g, 133) // one level spacing
		fd := ""
		if !*quick {
			r, err := emsim.ExtractCp(withSep(cfg, d))
			if err == nil {
				fd = fmt.Sprintf("%.4f", r.CapFF)
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", d), fmt.Sprintf("%.5f", cp),
			fmt.Sprintf("%.4f", g), fmt.Sprintf("%.6f", gEff), fd,
		})
	}
	writeTSV("fig05_qubit_proximity.tsv",
		[]string{"d_mm", "Cp_fF_model", "g_MHz", "geff_MHz_det133", "Cp_fF_fd2d"}, rows)
}

func withSep(c emsim.Config, d float64) emsim.Config { c.Separation = d; return c }

// fig6: resonator coupling vs resonance and distance.
func fig6() {
	var rows [][]string
	for _, d := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2} {
		g := physics.ResonatorParasiticCouplingMHz(6.5, 6.5, d, 1.0)
		gDet := physics.ResonatorParasiticCouplingMHz(6.5, 6.643, d, 1.0)
		gEff := physics.InteractionStrengthMHz(gDet, 143)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", d), fmt.Sprintf("%.4f", g), fmt.Sprintf("%.6f", gEff),
		})
	}
	writeTSV("fig06_resonator_proximity.tsv",
		[]string{"d_mm", "g_resonant_MHz_per_mm_adj", "geff_detuned_MHz"}, rows)
}

// fig11and12: fidelity per benchmark × topology; hotspot summary.
func fig11and12() {
	var f11 [][]string
	var f12 [][]string
	for _, topo := range topologies() {
		ps := plans(topo)
		var meanQ, meanC, meanH float64
		n := 0
		for _, bench := range qplacer.Benchmarks() {
			row := []string{topo, bench}
			var fq, fc float64
			for _, scheme := range []string{"qplacer", "classic", "human"} {
				ev, err := eng.Evaluate(ctx, ps[scheme], bench, mappings())
				if err != nil {
					log.Fatal(err)
				}
				row = append(row, fmt.Sprintf("%.6f", ev.MeanFidelity))
				switch scheme {
				case "qplacer":
					fq = ev.MeanFidelity
					meanQ += ev.MeanFidelity
				case "classic":
					fc = ev.MeanFidelity
					meanC += ev.MeanFidelity
				case "human":
					meanH += ev.MeanFidelity
				}
			}
			n++
			fmt.Printf("fig11 %-8s %-8s qplacer=%.4f classic=%.4f\n", topo, bench, fq, fc)
			f11 = append(f11, row)
		}
		f12 = append(f12, []string{
			topo,
			fmt.Sprintf("%.6f", meanQ/float64(n)),
			fmt.Sprintf("%.6f", meanC/float64(n)),
			fmt.Sprintf("%.6f", meanH/float64(n)),
			fmt.Sprintf("%d", len(ps["qplacer"].Metrics.ImpactedQubits)),
			fmt.Sprintf("%d", len(ps["classic"].Metrics.ImpactedQubits)),
			fmt.Sprintf("%d", len(ps["human"].Metrics.ImpactedQubits)),
			fmt.Sprintf("%.3f", ps["qplacer"].Metrics.Ph),
			fmt.Sprintf("%.3f", ps["classic"].Metrics.Ph),
			fmt.Sprintf("%.3f", ps["human"].Metrics.Ph),
		})
	}
	writeTSV("fig11_fidelity.tsv",
		[]string{"topology", "benchmark", "qplacer", "classic", "human"}, f11)
	writeTSV("fig12_summary.tsv",
		[]string{"topology", "fid_qplacer", "fid_classic", "fid_human",
			"impacted_qplacer", "impacted_classic", "impacted_human",
			"Ph_qplacer", "Ph_classic", "Ph_human"}, f12)
}

// fig13: Amer ratios relative to Qplacer.
func fig13() {
	var rows [][]string
	for _, topo := range topologies() {
		ps := plans(topo)
		base := ps["qplacer"].Metrics.Amer
		rows = append(rows, []string{
			topo,
			fmt.Sprintf("%.2f", base),
			"1.00",
			fmt.Sprintf("%.3f", ps["classic"].Metrics.Amer/base),
			fmt.Sprintf("%.3f", ps["human"].Metrics.Amer/base),
		})
		fmt.Printf("fig13 %-8s qplacer=%.0fmm² classic=%.2fx human=%.2fx\n",
			topo, base, ps["classic"].Metrics.Amer/base, ps["human"].Metrics.Amer/base)
	}
	writeTSV("fig13_area_ratio.tsv",
		[]string{"topology", "Amer_qplacer_mm2", "ratio_qplacer", "ratio_classic", "ratio_human"}, rows)
}

// fig14: Falcon layout prototype rendered to SVG + GDS.
func fig14() {
	plan, err := eng.Plan(ctx, qplacer.WithTopology("falcon"))
	if err != nil {
		log.Fatal(err)
	}
	svg, err := os.Create(filepath.Join(*outDir, "fig14_falcon_layout.svg"))
	if err != nil {
		log.Fatal(err)
	}
	defer svg.Close()
	if err := plan.WriteSVG(svg); err != nil {
		log.Fatal(err)
	}
	gds, err := os.Create(filepath.Join(*outDir, "fig14_falcon_layout.gds.txt"))
	if err != nil {
		log.Fatal(err)
	}
	defer gds.Close()
	if err := plan.WriteGDS(gds); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fig14 falcon: Amer=%.1fmm² Ph=%.3f%% (SVG+GDS written)\n",
		plan.Metrics.Amer, plan.Metrics.Ph)
}

// fig15andTable2: l_b sweep — utilization, Ph, cells, runtime.
func fig15andTable2() {
	var f15 [][]string
	var t2 [][]string
	for _, topo := range topologies() {
		for _, lb := range []float64{0.2, 0.3, 0.4} {
			plan, err := eng.Plan(ctx, qplacer.WithTopology(topo), qplacer.WithLB(lb))
			if err != nil {
				log.Fatal(err)
			}
			f15 = append(f15, []string{
				topo, fmt.Sprintf("%.1f", lb),
				fmt.Sprintf("%.3f", plan.Metrics.Utilization),
				fmt.Sprintf("%.3f", plan.Metrics.Ph),
			})
			placeMS := plan.Timings.Find("place").WallMS
			t2 = append(t2, []string{
				topo, fmt.Sprintf("%.1f", lb),
				fmt.Sprintf("%d", plan.NumCells),
				fmt.Sprintf("%.2f", placeMS/1e3),
				fmt.Sprintf("%.1f", placeMS/float64(plan.PlaceIterations)),
			})
			fmt.Printf("fig15 %-8s lb=%.1f cells=%4d util=%.3f Ph=%.3f rt=%.1fs\n",
				topo, lb, plan.NumCells, plan.Metrics.Utilization, plan.Metrics.Ph,
				placeMS/1e3)
		}
	}
	writeTSV("fig15_segment_sweep.tsv",
		[]string{"topology", "lb_mm", "utilization", "Ph_percent"}, f15)
	writeTSV("table2_runtime.tsv",
		[]string{"topology", "lb_mm", "cells", "runtime_s", "ms_per_iter"}, t2)
}

// fig1: infidelity vs area scatter (mean over benchmarks).
func fig1() {
	var rows [][]string
	for _, topo := range topologies() {
		ps := plans(topo)
		for name, p := range ps {
			// The benchmark suite fans out over the engine's worker pool.
			batch, err := eng.EvaluateAll(ctx, p, qplacer.Benchmarks(), mappings())
			if err != nil {
				log.Fatal(err)
			}
			mean := batch.MeanFidelity
			rows = append(rows, []string{
				topo, name,
				fmt.Sprintf("%.2f", p.Metrics.Amer),
				fmt.Sprintf("%.6f", 1-mean),
			})
		}
	}
	writeTSV("fig01_infidelity_vs_area.tsv",
		[]string{"topology", "scheme", "Amer_mm2", "infidelity"}, rows)
}

// table1: the topology/benchmark inventory.
func table1() {
	var rows [][]string
	for _, topo := range qplacer.Topologies() {
		plan, err := eng.Plan(ctx, qplacer.WithTopology(topo),
			qplacer.WithSkipLegalize(true), qplacer.WithMaxIters(1))
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, []string{
			topo,
			fmt.Sprintf("%d", plan.Device.NumQubits),
			fmt.Sprintf("%d", plan.Device.NumEdges()),
			plan.Device.Description,
		})
	}
	writeTSV("table1_topologies.tsv",
		[]string{"topology", "qubits", "couplings", "description"}, rows)
}

func main() {
	log.SetFlags(0)
	flag.Parse()
	if *version {
		fmt.Println("experiments " + obs.Build().String())
		return
	}
	var stop context.CancelFunc
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	ran := false
	run := func(id int, fn func()) {
		if *all || *fig == id {
			fn()
			ran = true
		}
	}
	run(1, fig1)
	run(4, fig4)
	run(5, fig5)
	run(6, fig6)
	run(11, fig11and12)
	run(12, fig11and12)
	run(13, fig13)
	run(14, fig14)
	run(15, fig15andTable2)
	if *all || *table == 1 {
		table1()
		ran = true
	}
	if *all || *table == 2 {
		if *table == 2 { // fig15 shares the sweep
			fig15andTable2()
		}
		ran = true
	}
	if !ran {
		fmt.Println("nothing selected; use -all, -fig N or -table N")
	}
}
