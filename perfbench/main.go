// Command perfbench is the repository's end-to-end benchmark. It drives the
// placement library and the qplacerd service through closed-loop workloads,
// checks every result, and prints one JSON line of metrics:
//
//	bash perfbench/run.sh --workload eagle-shelf --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh --list
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same op
// sequence twice, untraced and then with timers around each layer's entry
// points, and reports the per-layer metrics. See README.md for the workloads,
// the metrics and how they relate.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported metric with its unit and better direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of a --trace 0 run, identical for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_s_per_op", "s", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"hpwl_mm", "mm", "lower"},
	{"amer_mm2", "mm2", "lower"},
	{"ph_free_percent", "%", "higher"},
	{"fidelity", "fraction", "higher"},
}

// perLayer are the metrics of a --trace 1 run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"place.ms_per_op", "ms", "lower"},
	{"place.iters_per_op", "count", "lower"},
	{"place.us_per_iter", "us", "lower"},
	{"place.alloc_mb_per_op", "MB", "lower"},
	{"legal.ms_per_op", "ms", "lower"},
	{"legal.alloc_mb_per_op", "MB", "lower"},
	{"legal.gc_cycles_per_op", "count", "lower"},
	{"detail.ms_per_op", "ms", "lower"},
	{"detail.moved_per_op", "count", "higher"},
	{"metrics.ms_per_op", "ms", "lower"},
	{"validate.ms_per_op", "ms", "lower"},
	{"validate.errors_per_op", "count", "lower"},
	{"fidelity.ms_per_op", "ms", "lower"},
	{"fidelity.us_per_mapping", "us", "lower"},
	{"mapper.setup_ms", "ms", "lower"},
	{"topology.setup_ms", "ms", "lower"},
	{"frequency.setup_ms", "ms", "lower"},
	{"component.setup_ms", "ms", "lower"},
	{"engine.plan_cache_hit_ratio", "fraction", "higher"},
	{"engine.stage_cache_hit_ratio", "fraction", "higher"},
	{"engine.overhead_ms_per_op", "ms", "lower"},
	{"server.submit_ms_p50", "ms", "lower"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.run_ms_p50", "ms", "lower"},
	{"server.result_ms_p50", "ms", "lower"},
	{"server.dedup_hit_ratio", "fraction", "higher"},
	{"server.rejected_per_op", "count", "lower"},
	{"journal.put_ms_p50", "ms", "lower"},
	{"journal.ms_per_op", "ms", "lower"},
	{"journal.puts_per_op", "count", "lower"},
	{"journal.appends_per_op", "count", "lower"},
	{"journal.replay_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.layer_sum_pct", "%", "higher"},
	{"trace.span_gap_pct", "%", "lower"},
	{"trace.server_journal_pct", "%", "higher"},
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// quality is compared against every other run of the workload in this
	// checkout by the determinism guard.
	quality quality
	// info is extra provenance for the report line: op counts, sample
	// counts, input digests.
	info map[string]any
	// problems are correctness failures beyond per-op checks (a traced
	// layout that differs from its untraced twin, a span cross-check that
	// does not hold). Any problem fails the run.
	problems []string
}

// quality is the layout quality of a run's whole op set plus a digest of
// every layout it produced. Op sets are fixed per workload, so it must be
// identical across runs, seeds and trace modes.
type quality struct {
	HPWL     float64 `json:"hpwl_mm"`
	Amer     float64 `json:"amer_mm2"`
	Ph       float64 `json:"ph_percent"`
	Fidelity float64 `json:"fidelity"`
	Layouts  string  `json:"layouts_sha256"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	state    string // directory for temporary data and determinism references
}

type workload struct {
	why string
	run func(cfg config) (*outcome, error)
}

var workloads = map[string]workload{
	"eagle-shelf": {
		why: "IBM Eagle, nesterov/shelf/none, serial: legalization dominates time and allocation",
		run: func(cfg config) (*outcome, error) { return runLibrary(cfg, eagleShelf) },
	},
	"eagle-greedy": {
		why: "IBM Eagle, nesterov/greedy/none, default parallelism: global placement and fidelity dominate (not in BENCHMARK.json)",
		run: func(cfg config) (*outcome, error) { return runLibrary(cfg, eagleGreedy) },
	},
	"service": {
		why: "in-process qplacerd with a journal, 1 client, 1 in 4 fresh plans, 3 in 4 dedup repeats",
		run: runService,
	},
}

func main() {
	var cfg config
	var trace int
	var list bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see --list)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: orders the op sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "nominal measured seconds; sets the fixed op count")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.state, "state", ".bench_build/perfbench", "directory for temporary data and references")
	flag.BoolVar(&list, "list", false, "print every workload and metric with its unit and exit")
	flag.Parse()
	if list {
		printCatalogue()
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printCatalogue() {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("workloads:")
	for _, n := range names {
		fmt.Printf("  %-14s %s\n", n, workloads[n].why)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-30s %-9s %s is better\n", m.Name, m.Unit, m.Better)
	}
	fmt.Println("per-layer metrics (--trace 1):")
	for _, m := range perLayer {
		fmt.Printf("  %-30s %-9s %s is better\n", m.Name, m.Unit, m.Better)
	}
}

func run(cfg config) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (see --list)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.state, 0o755); err != nil {
		return err
	}
	out, err := w.run(cfg)
	if err != nil {
		return err
	}
	// The determinism guard runs before any number is reported: a correct
	// run whose layouts differ from an earlier run of the same op set is not
	// a measurement of the same program. A run with failed checks reports
	// them instead, and never becomes the reference.
	correct := out.failed == 0 && len(out.problems) == 0
	if correct {
		if err := checkDeterminism(cfg, out.quality); err != nil {
			return err
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		out.metrics["hpwl_mm"] = out.quality.HPWL
		out.metrics["amer_mm2"] = out.quality.Amer
		// P_h is 0 on every QPlacer layout, and a metric that reads 0 cannot
		// carry a relative bound, so the hotspot share is reported as the
		// hotspot-free share 100 − P_h.
		out.metrics["ph_free_percent"] = 100 - out.quality.Ph
		out.metrics["fidelity"] = out.quality.Fidelity
	}
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(os.Stderr, "%-30s %14.4f %-9s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED CHECK:", p)
	}
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed their correctness check\n", out.failed, out.attempted)
	}

	out.info["workload"] = cfg.workload
	out.info["seed"] = cfg.seed
	out.info["trace"] = cfg.trace
	out.info["host"] = hostInfo()
	out.info["quality"] = out.quality
	if len(out.problems) > 0 {
		out.info["problems"] = out.problems
	}
	report, err := json.Marshal(map[string]any{"report": out.info})
	if err != nil {
		return err
	}
	fmt.Println(string(report))
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{
		Correct:   correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// checkDeterminism compares the run's quality record with the first run of
// the same workload and op count by the same binary in this checkout,
// recording it when there is none. Traced and untraced runs share one
// reference, so a traced layout that differs from an untraced one fails too.
// The reference is keyed by the binary's SHA-256 (Go builds are
// reproducible): a rebuilt program with other layouts gets a reference of
// its own, and its quality is judged by the metrics' bounds instead.
func checkDeterminism(cfg config, q quality) error {
	build, err := executableDigest()
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.state, fmt.Sprintf("reference-%s-%gs-%s.json", cfg.workload, cfg.seconds, build[:16]))
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		raw, err = json.Marshal(q)
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	var ref quality
	if err := json.Unmarshal(raw, &ref); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if ref != q {
		return fmt.Errorf("determinism guard: layouts or quality differ from the first run of this workload by this binary\n  first: %+v\n  this:  %+v", ref, q)
	}
	return nil
}

// executableDigest is the hex SHA-256 of the running binary.
func executableDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// maxRSSMB is the process's peak resident set size so far. Every run is a
// fresh process, so read at the end of the op phase it is the peak of the
// run's set-up and ops; the service's shutdown afterwards, which folds the
// whole journal into one snapshot, is not part of it.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
