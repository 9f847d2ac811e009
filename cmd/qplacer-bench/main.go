// Command qplacer-bench measures the placement hot path across topologies,
// backends, and worker counts, and emits a machine-readable benchmark
// document — the repo's performance trajectory (BENCH_5.json and successors).
//
// For every (topology, placer, legalizer, detailed) group it runs the
// pipeline once
// per worker count on a fresh engine, records the warm per-iteration cost of
// global placement (ns/iter over a fixed iteration budget, best of -runs),
// and derives each entry's speedup against the group's serial (workers=1)
// entry. Because parallelism is bit-deterministic, the HPWL / overflow / P_h
// columns double as a quality-parity proof: they must match the serial run
// exactly, and the parity column records that they do.
//
// Usage:
//
//	qplacer-bench -topologies grid,falcon,eagle -workers 1,2,4 -out BENCH_5.json
//	qplacer-bench -quick -out bench.json     # CI smoke: grid only, small budget
//	qplacer-bench -check BENCH_5.json        # validate an existing document
//	qplacer-bench -suite gen.suite.json      # sweep a generated suite's topology
//	                                         # (its spec hash lands in host metadata)
//
// The -check mode parses a document and enforces the invariants CI relies
// on: every entry passed parity, and every group's best parallel speedup
// clears -min-speedup (a tolerance below 1.0 absorbs scheduler noise and
// single-core hosts, where parallelism cannot win wall-clock).
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
	"sort"
	"strconv"
	"strings"
	"time"

	"qplacer"
	"qplacer/internal/obs"
	"qplacer/internal/place"
)

// Document is the benchmark file schema. Entries are ordered: groups in
// sweep order, workers ascending within a group, serial first.
type Document struct {
	Tool          string    `json:"tool"`
	SchemaVersion int       `json:"schema_version"`
	GeneratedAt   time.Time `json:"generated_at"`
	Host          Host      `json:"host"`
	Iterations    int       `json:"iterations"` // global-placement iteration budget per run
	Runs          int       `json:"runs"`       // measured runs per entry (best kept)

	// DegradedHost flags a document whose parallel entries were measured on
	// a single-CPU host: speedups there are meaningless and parity is the
	// only column worth reading.
	DegradedHost bool    `json:"degraded_host,omitempty"`
	Entries      []Entry `json:"entries"`
}

// Host pins the machine the numbers came from; speedups are only comparable
// within one host, and a single-CPU host cannot show real parallel wins.
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

// Entry is one (topology, placer, legalizer, detailed, workers) measurement.
type Entry struct {
	Topology  string `json:"topology"`
	Placer    string `json:"placer"`
	Legalizer string `json:"legalizer"`
	// Detailed names the detailed-placement backend; empty in documents
	// predating the stage, which is equivalent to "none".
	Detailed string `json:"detailed,omitempty"`
	Workers  int    `json:"workers"`

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

	// SpeedupVsSerial is serial ns/iter divided by this entry's ns/iter
	// (1.0 for the serial entry itself). ParityVsSerial records that HPWL,
	// overflow, and P_h matched the serial entry bit-for-bit.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	ParityVsSerial  bool    `json:"parity_vs_serial"`

	// Timings is the per-stage span breakdown from one extra traced run,
	// kept out of the measured runs so tracing cannot perturb ns_per_iter.
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
		workers    = flag.String("workers", "1,2,4", "comma-separated worker counts (1 is added if missing: it is the speedup baseline)")
		iters      = flag.Int("iters", 100, "global-placement iteration budget per run")
		runs       = flag.Int("runs", 2, "measured runs per entry; the best is kept")
		warmup     = flag.Int("warmup", 1, "unmeasured warm-up runs per entry")
		out        = flag.String("out", "", "write the JSON document here (default stdout)")
		quick      = flag.Bool("quick", false, "CI smoke preset: grid only, workers 1,2, -iters 30, -runs 1")
		check      = flag.String("check", "", "validate an existing document instead of benchmarking")
		minSpeedup = flag.Float64("min-speedup", 0.5, "-check: minimum best parallel speedup per group (0.5 tolerates single-core hosts; CI uses 0.7)")
		requireWin = flag.Bool("require-win", true, "-check: fail when no parallel entry in the whole document beats serial (speedup > 1), unless the document is flagged degraded_host")
		noTimings  = flag.Bool("no-timings", false, "skip the extra traced run that records the per-stage span breakdown")
		suites     = flag.String("suite", "", "comma-separated generated-suite files (see qplacer-gen); their topologies join the sweep and their spec hashes are recorded")
		version    = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("qplacer-bench " + obs.Build().String())
		return
	}

	if *check != "" {
		if err := checkDocument(*check, *minSpeedup, *requireWin); err != nil {
			log.Fatal(err)
		}
		log.Printf("%s: OK", *check)
		return
	}

	if *quick {
		*topologies, *workers, *iters, *runs, *warmup = "grid", "1,2", 30, 1, 1
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
	workerList, err := parseInts(*workers)
	if err != nil {
		log.Fatal(err)
	}
	if !contains(workerList, 1) {
		workerList = append(workerList, 1)
	}
	// Ascending order puts the workers=1 entry first in every group: it is
	// the speedup/parity baseline and must be measured before the entries
	// that compare against it.
	sort.Ints(workerList)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	doc := Document{
		Tool:          "qplacer-bench",
		SchemaVersion: 1,
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
	if runtime.NumCPU() == 1 {
		for _, w := range workerList {
			if w > 1 {
				doc.DegradedHost = true
				log.Printf("WARNING: benching workers>1 on a single-CPU host: parallel speedups are meaningless here; the document is flagged degraded_host")
				break
			}
		}
	}
	if max := runtime.GOMAXPROCS(0); workerList[len(workerList)-1] > max {
		log.Printf("NOTE: worker counts above GOMAXPROCS=%d are clamped by the engine; those entries measure the clamped pool", max)
	}

	for _, topo := range splitList(*topologies) {
		for _, placer := range splitList(*placers) {
			for _, legalizer := range splitList(*legalizers) {
				for _, detailed := range splitList(*detaileds) {
					var serial *Entry
					for _, w := range workerList {
						e, err := measure(ctx, topo, placer, legalizer, detailed, w, *iters, *runs, *warmup, !*noTimings)
						if err != nil {
							log.Fatal(err)
						}
						if e.Workers == 1 { // sorted list: measured first
							s := e
							serial = &s
						}
						e.SpeedupVsSerial = float64(serial.NsPerIter) / float64(e.NsPerIter)
						e.ParityVsSerial = e.HPWLmm == serial.HPWLmm &&
							e.Overflow == serial.Overflow &&
							e.PhPercent == serial.PhPercent
						doc.Entries = append(doc.Entries, e)
						log.Printf("%-7s %s/%s/%s workers=%d  %8.2f ms/place  %7d ns/iter  speedup %.2fx  parity %v",
							topo, placer, legalizer, detailed, w, e.PlaceMS, e.NsPerIter, e.SpeedupVsSerial, e.ParityVsSerial)
					}
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
// columns are identical across runs; only the clock varies. With timings set,
// one additional traced run captures the per-stage span breakdown after the
// measured runs, so tracing overhead never touches the timing columns.
func measure(ctx context.Context, topo, placer, legalizer, detailed string, workers, iters, runs, warmup int, timings bool) (Entry, error) {
	e := Entry{
		Topology: topo, Placer: placer, Legalizer: legalizer,
		Detailed: detailed,
		Workers:  workers,
	}
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
		plan, err := qplacer.New(qplacer.WithParallelism(workers)).
			Plan(ctx, qplacer.WithOptions(opts))
		if err != nil {
			return e, fmt.Errorf("%s/%s/%s/%s workers=%d: %w", topo, placer, legalizer, detailed, workers, err)
		}
		if r < warmup {
			continue
		}
		totalMS := float64(time.Since(start).Microseconds()) / 1e3
		nsPerIter := plan.PlaceRuntime.Nanoseconds() / int64(plan.PlaceIterations)
		if e.NsPerIter == 0 || nsPerIter < e.NsPerIter {
			e.NsPerIter = nsPerIter
			e.PlaceMS = float64(plan.PlaceRuntime.Microseconds()) / 1e3
			e.TotalMS = totalMS
		}
		e.Iterations = plan.PlaceIterations
		e.HPWLmm = place.HPWL(plan.Netlist)
		e.Overflow = plan.PlaceOverflow
		e.PhPercent = plan.Metrics.Ph
		e.DetailMoved = plan.DetailMoved
		e.DetailHPWLmm = plan.DetailHPWLAfter
	}
	if timings {
		plan, err := qplacer.New(qplacer.WithParallelism(workers), qplacer.WithTracing(true)).
			Plan(ctx, qplacer.WithOptions(opts))
		if err != nil {
			return e, fmt.Errorf("%s/%s/%s/%s workers=%d traced run: %w", topo, placer, legalizer, detailed, workers, err)
		}
		e.Timings = plan.Timings
	}
	return e, nil
}

// checkDocument enforces the CI invariants on an existing document: it
// parses, every entry passed parity, each group's best parallel entry clears
// the speedup floor, and — with requireWin, unless the document is flagged
// degraded_host — at least one parallel entry actually beat serial. The last
// check is the parallel-slower-than-serial regression gate: a healthy
// multi-core run where every speedup is below 1.0 means parallelism is a
// net loss and must fail loudly instead of hiding behind the tolerance
// floor.
func checkDocument(path string, minSpeedup float64, requireWin bool) error {
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
	type group struct{ topo, placer, legalizer, detailed string }
	best := map[group]float64{} // best workers>1 speedup per group
	seen := map[group]bool{}
	for _, e := range doc.Entries {
		if !e.ParityVsSerial {
			return fmt.Errorf("%s: %s/%s/%s/%s workers=%d failed quality parity vs serial",
				path, e.Topology, e.Placer, e.Legalizer, e.Detailed, e.Workers)
		}
		if e.NsPerIter <= 0 {
			return fmt.Errorf("%s: %s/%s/%s/%s workers=%d has non-positive ns_per_iter",
				path, e.Topology, e.Placer, e.Legalizer, e.Detailed, e.Workers)
		}
		g := group{e.Topology, e.Placer, e.Legalizer, e.Detailed}
		seen[g] = true
		if e.Workers > 1 && e.SpeedupVsSerial > best[g] {
			best[g] = e.SpeedupVsSerial
		}
	}
	if requireWin && !doc.DegradedHost {
		won := false
		for _, s := range best {
			if s > 1.0 {
				won = true
				break
			}
		}
		if !won {
			return fmt.Errorf("%s: no parallel entry beat serial (every speedup_vs_serial <= 1.0) and the document is not flagged degraded_host — the parallel path is a net loss on this host", path)
		}
	}
	for g := range seen {
		speedup, ok := best[g]
		if !ok {
			// A group without parallel entries proves nothing about the
			// parallel path; a document of such groups must not pass the
			// gate that exists to watch that path.
			return fmt.Errorf("%s: %s/%s/%s/%s has no workers>1 entries to check",
				path, g.topo, g.placer, g.legalizer, g.detailed)
		}
		if speedup < minSpeedup {
			return fmt.Errorf("%s: %s/%s/%s/%s best parallel speedup %.2fx below floor %.2fx",
				path, g.topo, g.placer, g.legalizer, g.detailed, speedup, minSpeedup)
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

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func contains(xs []int, want int) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
