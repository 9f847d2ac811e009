// Command qplacer places one device topology with one scheme and reports
// the layout metrics; optionally it renders the layout to SVG and GDS-like
// text and evaluates benchmarks' program fidelity. Ctrl-C cancels the
// placement mid-iteration.
//
// Usage:
//
//	qplacer -topology falcon -scheme qplacer -lb 0.3 -svg layout.svg \
//	        -gds layout.gds -bench bv-4 -mappings 50
//	qplacer -topology eagle -bench all        # whole suite, concurrent
//	qplacer -topology grid -bench all -json   # the service's ResultDocument
//	qplacer -topology grid -placer anneal -legalizer greedy
//	qplacer -topology grid -verify            # independently verify the layout
//	qplacer -topology grid-64                 # parametric family member
//	qplacer -suite suite.json -verify         # generated suite (see qplacer-gen)
//	qplacer -list-backends                    # registered placers/legalizers
//	qplacer -list-topologies                  # catalogue + parametric families
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"qplacer"
	"qplacer/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qplacer: ")
	var (
		topo     = flag.String("topology", "falcon", "device topology: "+strings.Join(qplacer.RegisteredTopologies(), "|"))
		scheme   = flag.String("scheme", "qplacer", "placement scheme: qplacer|classic|human")
		lb       = flag.Float64("lb", 0.3, "resonator segment size l_b (mm)")
		seed     = flag.Int64("seed", 1, "engine seed")
		svgPath  = flag.String("svg", "", "write layout SVG to this path")
		gdsPath  = flag.String("gds", "", "write GDS-like text to this path")
		bench    = flag.String("bench", "", "evaluate this benchmark (e.g. bv-4), or 'all' for the whole suite")
		mappings = flag.Int("mappings", 50, "number of subset mappings for -bench")
		workers  = flag.Int("workers", 0, "worker-pool size for -bench all (0 = GOMAXPROCS)")
		asJSON   = flag.Bool("json", false, "emit the run as the same JSON ResultDocument qplacerd serves")
		placer   = flag.String("placer", "", "placement backend: "+strings.Join(qplacer.Placers(), "|")+" (default "+qplacer.DefaultPlacerName+")")
		legalize = flag.String("legalizer", "", "legalization backend: "+strings.Join(qplacer.Legalizers(), "|")+" (default "+qplacer.DefaultLegalizerName+")")
		detailed = flag.String("detailed", "", "detailed-placement backend: "+strings.Join(qplacer.DetailedPlacers(), "|")+" (default "+qplacer.DefaultDetailedPlacerName+")")
		listBE   = flag.Bool("list-backends", false, "print registered placer/legalizer backends and exit")
		listTopo = flag.Bool("list-topologies", false, "print every resolvable topology and the parametric family schemas, then exit")
		suite    = flag.String("suite", "", "load a generated benchmark suite (see qplacer-gen) and register its topology and workloads")
		verify   = flag.Bool("verify", false, "independently verify the placement; exit non-zero when invalid")
		version  = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("qplacer " + obs.Build().String())
		return
	}

	if *listBE {
		fmt.Printf("placers:    %s\n", strings.Join(qplacer.Placers(), " "))
		fmt.Printf("legalizers: %s\n", strings.Join(qplacer.Legalizers(), " "))
		fmt.Printf("detailed:   %s\n", strings.Join(qplacer.DetailedPlacers(), " "))
		return
	}

	if *listTopo {
		printTopologies()
		return
	}

	if *suite != "" {
		loaded := loadSuite(*suite)
		// The suite's topology becomes the default unless -topology was
		// given explicitly.
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "topology" })
		if !explicit {
			*topo = loaded.Topology.Name
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sch, err := qplacer.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}

	engOpts := []qplacer.Option{
		qplacer.WithTopology(*topo),
		qplacer.WithScheme(sch),
		qplacer.WithLB(*lb),
		qplacer.WithSeed(*seed),
		qplacer.WithWorkers(*workers),
		qplacer.WithPlacer(*placer),
		qplacer.WithLegalizer(*legalize),
		qplacer.WithDetailedPlacer(*detailed),
	}
	if *verify {
		engOpts = append(engOpts, qplacer.WithValidation(qplacer.ValidationAnnotate))
	}
	eng := qplacer.New(engOpts...)
	plan, err := eng.Plan(ctx)
	if err != nil {
		log.Fatal(err)
	}
	doc := qplacer.ResultDocument{Plan: plan, Validation: plan.Validation}

	writeLayout := func(path string, render func(*os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := render(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if !*asJSON {
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *svgPath != "" {
		writeLayout(*svgPath, func(f *os.File) error { return plan.WriteSVG(f) })
	}
	if *gdsPath != "" {
		writeLayout(*gdsPath, func(f *os.File) error { return plan.WriteGDS(f) })
	}

	switch *bench {
	case "":
	case "all":
		batch, err := eng.EvaluateAll(ctx, plan, nil, *mappings)
		if err != nil {
			log.Fatal(err)
		}
		doc.Batch = batch
	default:
		ev, err := eng.Evaluate(ctx, plan, *bench, *mappings)
		if err != nil {
			log.Fatal(err)
		}
		doc.Evaluation = ev
	}

	// failIfInvalid makes -verify a meaningful exit status for scripts: the
	// report is printed (text or JSON) first, then the process fails.
	failIfInvalid := func() {
		if v := plan.Validation; *verify && v != nil && !v.Valid {
			log.Fatalf("placement failed verification: %d error violation(s), %d warning(s)",
				v.Errors, v.Warnings)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Fatal(err)
		}
		failIfInvalid()
		return
	}

	m := plan.Metrics
	fmt.Printf("topology     %s (%d qubits, %d couplings)\n",
		plan.Device.Name, plan.Device.NumQubits, plan.Device.NumEdges())
	if sch == qplacer.SchemeHuman {
		// The manual baseline bypasses the placer/legalizer backends.
		fmt.Printf("scheme       %v\n", sch)
	} else {
		fmt.Printf("scheme       %v   placer %s   legalizer %s\n",
			sch, plan.Options.Placer, plan.Options.Legalizer)
	}
	fmt.Printf("cells        %d   iters %d   runtime %v\n",
		plan.NumCells, plan.PlaceIterations, plan.PlaceRuntime.Round(1e6))
	fmt.Printf("A_mer        %.1f mm²   A_poly %.1f mm²   utilization %.3f\n",
		m.Amer, m.Apoly, m.Utilization)
	fmt.Printf("P_h          %.3f %%   violations %d   impacted qubits %d\n",
		m.Ph, len(m.Violations), len(m.ImpactedQubits))
	if v := plan.Validation; v != nil {
		verdict := "valid"
		if !v.Valid {
			verdict = "INVALID"
		}
		fmt.Printf("verify       %s   errors %d   warnings %d   (%d instances, %d pairs)\n",
			verdict, v.Errors, v.Warnings, v.InstancesChecked, v.PairsChecked)
		for _, viol := range v.Violations {
			if viol.Severity == qplacer.SeverityError {
				fmt.Printf("  %-20s %s\n", viol.Code, viol.Detail)
			}
		}
	}
	if doc.Batch != nil {
		for _, ev := range doc.Batch.Results {
			fmt.Printf("fidelity     %-10s mean %.4f  min %.4f  max %.4f (%d mappings)\n",
				ev.Benchmark, ev.MeanFidelity, ev.MinFidelity, ev.MaxFidelity, ev.NumMappings)
		}
		fmt.Printf("suite        mean %.4f  min %.4f  max %.4f  (%d mappings in %v)\n",
			doc.Batch.MeanFidelity, doc.Batch.MinFidelity, doc.Batch.MaxFidelity,
			doc.Batch.TotalMappings, doc.Batch.Elapsed.Round(1e6))
	}
	if doc.Evaluation != nil {
		ev := doc.Evaluation
		fmt.Printf("fidelity     %s: mean %.4f  min %.4f  max %.4f (%d mappings)\n",
			ev.Benchmark, ev.MeanFidelity, ev.MinFidelity, ev.MaxFidelity, ev.NumMappings)
	}
	failIfInvalid()
}

// loadSuite reads, validates, and registers a generated benchmark suite.
func loadSuite(path string) *qplacer.GeneratedSuite {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	s, err := qplacer.LoadSuite(f)
	if err != nil {
		log.Fatalf("suite %s: %v", path, err)
	}
	if err := s.Register(); err != nil {
		log.Fatalf("suite %s: %v", path, err)
	}
	return s
}

// printTopologies renders the same catalogue GET /v1/topologies serves:
// every resolvable name with its qubit/coupling counts, then the parametric
// family schemas.
func printTopologies() {
	fmt.Printf("%-16s %7s %7s  %-12s %s\n", "NAME", "QUBITS", "EDGES", "CANONICAL", "DESCRIPTION")
	for _, in := range qplacer.TopologyCatalog() {
		fmt.Printf("%-16s %7d %7d  %-12s %s\n", in.Name, in.Qubits, in.Edges, in.Canonical, in.Description)
	}
	fmt.Println()
	fmt.Println("parametric families (resolve anywhere a topology name is accepted):")
	for _, f := range qplacer.TopologyFamilies() {
		fmt.Printf("  %-32s %s (e.g. %s)\n", f.Schema, f.Description, strings.Join(f.Examples, ", "))
	}
}
