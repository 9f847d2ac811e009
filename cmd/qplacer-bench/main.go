// Command qplacer-bench measures the placement hot path across topologies
// and backends, and emits a machine-readable benchmark document — the
// repo's performance trajectory (BENCH_5.json and successors).
//
// For every (topology, placer, legalizer, detailed) group it runs the
// pipeline on a fresh engine, records the warm per-iteration cost of global
// placement (ns/iter over a fixed iteration budget, best of -runs), and the
// layout's HPWL / overflow / P_h, which are exact per seed.
//
// Usage:
//
//	qplacer-bench -topologies grid,falcon,eagle -out BENCH_5.json
//	qplacer-bench -quick -out bench.json     # CI smoke: grid only, small budget
//	qplacer-bench -check BENCH_5.json        # validate an existing document
//	qplacer-bench -suite gen.suite.json      # sweep a generated suite's topology
//	                                         # (its spec hash lands in host metadata)
//
// The -check mode parses a document and enforces the invariants CI relies
// on: it has entries, and every entry has a positive ns_per_iter. Parsing
// alone guarantees finite quality columns: encoding/json rejects numbers
// outside the float64 range and has no NaN or infinity literal.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"qplacer"
	"qplacer/internal/obs"
	"qplacer/internal/place"
)

// Document is the benchmark file schema. Entries are in sweep order.
// Schema version 1 documents also carry a per-entry worker count and
// speedup/parity columns against the serial entry; version 2 dropped them
// with the intra-plan worker pool.
type Document struct {
	Tool          string    `json:"tool"`
	SchemaVersion int       `json:"schema_version"`
	GeneratedAt   time.Time `json:"generated_at"`
	Host          Host      `json:"host"`
	Iterations    int       `json:"iterations"` // global-placement iteration budget per run
	Runs          int       `json:"runs"`       // measured runs per entry (best kept)
	Entries       []Entry   `json:"entries"`
}

// Host pins the machine the numbers came from; timings are only comparable
// within one host.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Suites pins any generated suites swept via -suite: the spec hash makes
	// the exact benchmark reproducible with qplacer-gen.
	Suites []SuiteRef `json:"suites,omitempty"`
}

// SuiteRef identifies one generated suite by name and spec fingerprint.
type SuiteRef struct {
	Name     string `json:"name"`
	SpecHash string `json:"spec_hash"`
}

// Entry is one (topology, placer, legalizer, detailed) measurement.
type Entry struct {
	Topology  string `json:"topology"`
	Placer    string `json:"placer"`
	Legalizer string `json:"legalizer"`
	// Detailed names the detailed-placement backend; empty in documents
	// predating the stage, which is equivalent to "none".
	Detailed string `json:"detailed,omitempty"`

	Iterations int     `json:"iterations"`
	NsPerIter  int64   `json:"ns_per_iter"` // best measured run
	PlaceMS    float64 `json:"place_ms"`    // global placement, best run
	TotalMS    float64 `json:"total_ms"`    // full Plan incl. legalization, best run

	HPWLmm    float64 `json:"hpwl_mm"`
	Overflow  float64 `json:"overflow"`
	PhPercent float64 `json:"ph_percent"`

	// DetailMoved / DetailHPWLmm record the detailed stage's work when one
	// ran: instances moved and the post-refinement HPWL (HPWLmm already
	// reflects it; the column makes the recovered wirelength auditable).
	DetailMoved  int     `json:"detail_moved,omitempty"`
	DetailHPWLmm float64 `json:"detail_hpwl_mm,omitempty"`

	// Timings is the per-stage span breakdown of the best measured run.
	Timings *qplacer.SpanTiming `json:"timings,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("qplacer-bench: ")
	var (
		topologies = flag.String("topologies", "grid,falcon,eagle", "comma-separated topologies to sweep")
		placers    = flag.String("placers", "nesterov", "comma-separated placement backends")
		legalizers = flag.String("legalizers", "shelf", "comma-separated legalization backends")
		detaileds  = flag.String("detailed", "none", "comma-separated detailed-placement backends")
		iters      = flag.Int("iters", 100, "global-placement iteration budget per run")
		runs       = flag.Int("runs", 2, "measured runs per entry; the best is kept")
		warmup     = flag.Int("warmup", 1, "unmeasured warm-up runs per entry")
		out        = flag.String("out", "", "write the JSON document here (default stdout)")
		quick      = flag.Bool("quick", false, "CI smoke preset: grid only, -iters 30, -runs 1")
		check      = flag.String("check", "", "validate an existing document instead of benchmarking")
		suites     = flag.String("suite", "", "comma-separated generated-suite files (see qplacer-gen); their topologies join the sweep and their spec hashes are recorded")
		version    = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("qplacer-bench " + obs.Build().String())
		return
	}

	if *check != "" {
		if err := checkDocument(*check); err != nil {
			log.Fatal(err)
		}
		log.Printf("%s: OK", *check)
		return
	}

	if *quick {
		*topologies, *iters, *runs, *warmup = "grid", 30, 1, 1
	}

	// Generated suites register their topologies, join the sweep, and pin
	// their spec hashes in the host-metadata block.
	var suiteRefs []SuiteRef
	for _, path := range splitList(*suites) {
		s, err := loadSuite(path)
		if err != nil {
			log.Fatal(err)
		}
		suiteRefs = append(suiteRefs, SuiteRef{Name: s.Topology.Name, SpecHash: s.SpecHash})
		*topologies += "," + s.Topology.Name
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	doc := Document{
		Tool:          "qplacer-bench",
		SchemaVersion: 2,
		GeneratedAt:   time.Now().UTC(),
		Host: Host{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Suites:     suiteRefs,
		},
		Iterations: *iters,
		Runs:       *runs,
	}
	for _, topo := range splitList(*topologies) {
		for _, placer := range splitList(*placers) {
			for _, legalizer := range splitList(*legalizers) {
				for _, detailed := range splitList(*detaileds) {
					e, err := measure(ctx, topo, placer, legalizer, detailed, *iters, *runs, *warmup)
					if err != nil {
						log.Fatal(err)
					}
					doc.Entries = append(doc.Entries, e)
					log.Printf("%-7s %s/%s/%s  %8.2f ms/place  %7d ns/iter",
						topo, placer, legalizer, detailed, e.PlaceMS, e.NsPerIter)
				}
			}
		}
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d entries)", *out, len(doc.Entries))
}

// measure runs the pipeline warmup+runs times on fresh engines and keeps the
// fastest measurement. Placements are bit-deterministic, so the quality
// columns are identical across runs; only the clock varies.
func measure(ctx context.Context, topo, placer, legalizer, detailed string, iters, runs, warmup int) (Entry, error) {
	e := Entry{Topology: topo, Placer: placer, Legalizer: legalizer, Detailed: detailed}
	opts := qplacer.Options{
		Topology:       topo,
		MaxIters:       iters,
		Placer:         placer,
		Legalizer:      legalizer,
		DetailedPlacer: detailed,
	}
	for r := 0; r < warmup+runs; r++ {
		start := time.Now()
		// A fresh engine per run: the plan cache would otherwise hand the
		// second run back the first run's result without doing any work.
		plan, err := qplacer.New().Plan(ctx, qplacer.WithOptions(opts))
		if err != nil {
			return e, fmt.Errorf("%s/%s/%s/%s: %w", topo, placer, legalizer, detailed, err)
		}
		if r < warmup {
			continue
		}
		totalMS := float64(time.Since(start).Microseconds()) / 1e3
		placeMS := plan.Timings.Find("place").WallMS
		nsPerIter := int64(placeMS * 1e6 / float64(plan.PlaceIterations))
		if e.NsPerIter == 0 || nsPerIter < e.NsPerIter {
			e.NsPerIter = nsPerIter
			e.PlaceMS = placeMS
			e.TotalMS = totalMS
			e.Timings = plan.Timings
		}
		e.Iterations = plan.PlaceIterations
		e.HPWLmm = place.HPWL(plan.Netlist)
		e.Overflow = plan.PlaceOverflow
		e.PhPercent = plan.Metrics.Ph
		e.DetailMoved = plan.DetailMoved
		e.DetailHPWLmm = plan.DetailHPWLAfter
	}
	return e, nil
}

// checkDocument enforces the CI invariants on an existing document: it
// parses, has entries, and every entry has a positive ns_per_iter.
func checkDocument(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Entries) == 0 {
		return fmt.Errorf("%s: no benchmark entries", path)
	}
	for _, e := range doc.Entries {
		if e.NsPerIter <= 0 {
			return fmt.Errorf("%s: %s/%s/%s/%s has non-positive ns_per_iter",
				path, e.Topology, e.Placer, e.Legalizer, e.Detailed)
		}
	}
	return nil
}

// loadSuite reads, validates, and registers one generated benchmark suite.
func loadSuite(path string) (*qplacer.GeneratedSuite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := qplacer.LoadSuite(f)
	if err != nil {
		return nil, fmt.Errorf("suite %s: %w", path, err)
	}
	if err := s.Register(); err != nil {
		return nil, fmt.Errorf("suite %s: %w", path, err)
	}
	return s, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
