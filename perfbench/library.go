package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"qplacer"
	"qplacer/internal/circuit"
	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/mapper"
	"qplacer/internal/metrics"
	"qplacer/internal/place"
	"qplacer/internal/topology"
)

// libSpec is a library workload: one client calling Engine.Plan and then
// EvaluateAll on one device, op after op.
type libSpec struct {
	topology    string
	legalizer   string
	parallelism int // WithParallelism; 0 keeps the engine default
	// opSeconds is the nominal cost of one op; the op count is
	// --seconds / opSeconds, so it never depends on measured time.
	opSeconds float64
	// workloadSeed fixes the op set. --seed only orders it, so every run
	// does the same work and quality is identical across runs.
	workloadSeed uint64
}

var (
	eagleShelf  = libSpec{topology: "eagle", legalizer: "shelf", parallelism: 1, opSeconds: 7, workloadSeed: 0xea61e5}
	eagleGreedy = libSpec{topology: "eagle", legalizer: "greedy", opSeconds: 2.2, workloadSeed: 0xea61e6}
)

const (
	libMappings = qplacer.DefaultMappings
	// setupRepeats is how many times a run pays the cold set-up; setup_s
	// is their median.
	setupRepeats = 7
	minLibOps    = 3
	// warmupSeed lies outside the range libOps draws plan seeds from.
	warmupSeed = 1 << 21
)

// opCount turns the nominal run length into a fixed op count.
func opCount(seconds, perOp float64, floor int) int {
	return max(floor, int(math.Round(seconds/perOp)))
}

// libOps returns the workload's fixed op set (plan seeds), in the order
// --seed gives it.
func libOps(spec libSpec, n int, seed uint64) []int64 {
	set := rand.New(rand.NewPCG(spec.workloadSeed, uint64(n)))
	seen := map[int64]bool{}
	var seeds []int64
	for len(seeds) < n {
		s := 1 + set.Int64N(1<<20)
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	order := rand.New(rand.NewPCG(seed, spec.workloadSeed))
	order.Shuffle(n, func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	return seeds
}

func (spec libSpec) engineOptions() []qplacer.Option {
	opts := []qplacer.Option{
		qplacer.WithTopology(spec.topology),
		qplacer.WithLegalizer(spec.legalizer),
		qplacer.WithValidation(qplacer.ValidationAnnotate),
	}
	if spec.parallelism > 0 {
		opts = append(opts, qplacer.WithParallelism(spec.parallelism))
	}
	return opts
}

// librarySetup is the cold work a library user pays once: a new engine, its
// stage cache (device, frequency assignment, netlist, collision map) filled
// by a plan of the deterministic human-scheme baseline, and its circuit and
// mapping caches filled by one EvaluateAll.
func librarySetup(ctx context.Context, spec libSpec) (*qplacer.Engine, time.Duration, error) {
	start := time.Now()
	eng := qplacer.New(spec.engineOptions()...)
	warm, err := eng.Plan(ctx, qplacer.WithScheme(qplacer.SchemeHuman), qplacer.WithValidation(qplacer.ValidationOff))
	if err != nil {
		return nil, 0, fmt.Errorf("set-up plan: %w", err)
	}
	if _, err := eng.EvaluateAll(ctx, warm, nil, libMappings); err != nil {
		return nil, 0, fmt.Errorf("set-up evaluation: %w", err)
	}
	return eng, time.Since(start), nil
}

// opRecord is one op's result.
type opRecord struct {
	key       string // identifies the op input, independent of order
	latencyMS float64
	cpuS      float64 // process CPU time while the op ran
	failed    bool
	layout    string
	hpwl      float64
	amer, ph  float64
	fidelity  float64

	// Traced library ops only.
	planMS, validateMS, fidelityMS, metricsMS float64
	metricsSpanMS                             float64
	placeSpanMS, legalSpanMS                  float64
	validateErrors                            int
}

// phase is what one timed phase of a run cost the process.
type phase struct {
	wall    time.Duration
	allocMB float64
	rssMB   float64 // peak RSS at the end of the phase
}

// measure runs f and records its wall time, allocation and the process's
// peak RSS when it returns.
func measure(f func()) phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	ph := phase{wall: time.Since(start)}
	runtime.ReadMemStats(&m1)
	ph.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	ph.rssMB = maxRSSMB()
	return ph
}

// passResult is one pass over an op sequence.
type passResult struct {
	phase
	ops      []opRecord
	failures []string
}

func latencies(ops []opRecord) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.latencyMS
	}
	return out
}

func cpuPerOp(ops []opRecord) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.cpuS
	}
	return out
}

func failedOps(ops []opRecord) int {
	n := 0
	for _, o := range ops {
		if o.failed {
			n++
		}
	}
	return n
}

// libraryPass runs every op once. Traced ops go through the timing wrappers
// and time Validate, EvaluateAll and metrics.Measure directly.
func libraryPass(ctx context.Context, eng *qplacer.Engine, spec libSpec, seeds []int64, trace bool) *passResult {
	res := &passResult{}
	res.phase = measure(func() {
		for _, seed := range seeds {
			rec := opRecord{key: fmt.Sprintf("seed=%d", seed)}
			var err error
			cpu0 := cpuSeconds()
			if trace {
				err = tracedLibraryOp(ctx, eng, spec, seed, &rec)
			} else {
				err = libraryOp(ctx, eng, seed, &rec)
			}
			rec.cpuS = cpuSeconds() - cpu0
			if err != nil {
				rec.failed = true
				res.failures = append(res.failures, fmt.Sprintf("%s: %v", rec.key, err))
			}
			res.ops = append(res.ops, rec)
		}
	})
	return res
}

func libraryOp(ctx context.Context, eng *qplacer.Engine, seed int64, rec *opRecord) error {
	start := time.Now()
	plan, err := eng.Plan(ctx, qplacer.WithSeed(seed))
	if err != nil {
		rec.latencyMS = ms(time.Since(start))
		return err
	}
	batch, err := eng.EvaluateAll(ctx, plan, nil, libMappings)
	rec.latencyMS = ms(time.Since(start))
	if err != nil {
		return err
	}
	return checkLibraryOp(plan, plan.Validation, batch, rec)
}

func tracedLibraryOp(ctx context.Context, eng *qplacer.Engine, spec libSpec, seed int64, rec *opRecord) error {
	start := time.Now()
	plan, err := eng.Plan(ctx, qplacer.WithSeed(seed),
		qplacer.WithPlacer(traced(qplacer.DefaultPlacerName)),
		qplacer.WithLegalizer(traced(spec.legalizer)),
		qplacer.WithValidation(qplacer.ValidationOff))
	rec.planMS = ms(time.Since(start))
	if err != nil {
		rec.latencyMS = rec.planMS
		return err
	}
	t := time.Now()
	rep, err := qplacer.Validate(plan)
	rec.validateMS = ms(time.Since(t))
	if err != nil {
		rec.latencyMS = ms(time.Since(start))
		return err
	}
	t = time.Now()
	batch, err := eng.EvaluateAll(ctx, plan, nil, libMappings)
	rec.fidelityMS = ms(time.Since(t))
	rec.latencyMS = ms(time.Since(start))
	if err != nil {
		return err
	}
	// The engine measured the layout inside Plan; measuring it again here
	// times the metrics layer on its own, outside the op latency.
	t = time.Now()
	metrics.Measure(plan.Netlist, plan.Options.DeltaC)
	rec.metricsMS = ms(time.Since(t))
	rec.metricsSpanMS = plan.Timings.Find("metrics").WallMS
	rec.placeSpanMS = plan.Timings.Find("place").WallMS
	rec.legalSpanMS = plan.Timings.Find("legalize").WallMS
	rec.validateErrors = rep.Errors
	return checkLibraryOp(plan, rep, batch, rec)
}

// checkLibraryOp verifies one op's outputs and records its quality: the
// plan's validation report must be clean and EvaluateAll must pass
// checkBatch with a positive mean fidelity for every benchmark.
func checkLibraryOp(plan *qplacer.PlanResult, rep *qplacer.ValidationReport, batch *qplacer.BatchResult, rec *opRecord) error {
	if rep == nil {
		return fmt.Errorf("plan carries no validation report")
	}
	if !rep.Valid {
		return fmt.Errorf("plan is not Validate-clean: %d errors", rep.Errors)
	}
	if err := checkBatch(batch, libMappings, true); err != nil {
		return err
	}
	rec.layout = layoutDigest(plan.Netlist)
	rec.hpwl = place.HPWL(plan.Netlist)
	rec.amer = plan.Metrics.Amer
	rec.ph = plan.Metrics.Ph
	rec.fidelity = batch.MeanFidelity
	return nil
}

// checkBatch verifies an EvaluateAll result: every Table I benchmark over
// the requested mapping count, every fidelity finite and within [0, 1], and
// with positiveMean each benchmark's mean fidelity above 0. A single mapping
// can legitimately score 0.
func checkBatch(batch *qplacer.BatchResult, mappings int, positiveMean bool) error {
	want := map[string]bool{}
	for _, b := range qplacer.Benchmarks() {
		want[b] = true
	}
	if batch == nil || len(batch.Results) != len(want) {
		return fmt.Errorf("evaluation returned a result set other than the %d Table I benchmarks", len(want))
	}
	inRange := func(f float64) bool { return f >= 0 && f <= 1 }
	meanOK := func(f float64) bool { return inRange(f) && (!positiveMean || f > 0) }
	for _, r := range batch.Results {
		if !want[r.Benchmark] || r.NumMappings != mappings {
			return fmt.Errorf("evaluation of %s used %d mappings, want a Table I benchmark over %d", r.Benchmark, r.NumMappings, mappings)
		}
		delete(want, r.Benchmark)
		if !meanOK(r.MeanFidelity) || !inRange(r.MinFidelity) || !inRange(r.MaxFidelity) {
			return fmt.Errorf("%s fidelity out of range: mean %v min %v max %v", r.Benchmark, r.MeanFidelity, r.MinFidelity, r.MaxFidelity)
		}
	}
	if !meanOK(batch.MeanFidelity) {
		return fmt.Errorf("suite fidelity %v out of range", batch.MeanFidelity)
	}
	return nil
}

// layoutDigest hashes every instance's ID and exact position bits.
func layoutDigest(nl *component.Netlist) string {
	pts := make([][3]float64, len(nl.Instances))
	for i, in := range nl.Instances {
		pts[i] = [3]float64{float64(in.ID), in.Pos.X, in.Pos.Y}
	}
	return digestPoints(pts)
}

func digestPoints(pts [][3]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range pts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// qualityOf averages quality over the successful ops in key order, so the
// floating-point sums do not depend on the order --seed gave the ops.
func qualityOf(ops []opRecord) quality {
	sorted := append([]opRecord(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	var q quality
	h := sha256.New()
	n := 0
	for _, o := range sorted {
		if o.failed {
			continue
		}
		n++
		q.HPWL += o.hpwl
		q.Amer += o.amer
		q.Ph += o.ph
		q.Fidelity += o.fidelity
		fmt.Fprintf(h, "%s %s\n", o.key, o.layout)
	}
	if n > 0 {
		q.HPWL /= float64(n)
		q.Amer /= float64(n)
		q.Ph /= float64(n)
		q.Fidelity /= float64(n)
	}
	q.Layouts = hex.EncodeToString(h.Sum(nil))
	return q
}

// inputDigests hashes the op keys in run order and as a sorted set: the
// first differs between seeds, the second must not.
func inputDigests(ops []opRecord) (ordered, set string) {
	keys := make([]string, len(ops))
	for i, o := range ops {
		keys[i] = o.key
	}
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	ordered = hex.EncodeToString(h.Sum(nil))
	sort.Strings(keys)
	h.Reset()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return ordered, hex.EncodeToString(h.Sum(nil))
}

// endToEndMetrics derives the timing metrics of an untraced pass.
func endToEndMetrics(out *outcome, p phase, ops []opRecord, setups []float64) {
	lat := latencies(ops)
	n := float64(len(ops))
	out.metrics["setup_s"] = median(setups)
	out.metrics["latency_p50_ms"] = median(lat)
	out.metrics["latency_p90_ms"] = quantile(lat, 0.9)
	out.metrics["ops_per_s"] = n / p.wall.Seconds()
	out.metrics["cpu_s_per_op"] = median(cpuPerOp(ops))
	out.metrics["alloc_mb_per_op"] = p.allocMB / n
	out.metrics["max_rss_mb"] = p.rssMB
	out.info["latency_samples"] = len(lat)
	out.info["samples_beyond_p90"] = len(lat) - int(math.Ceil(0.9*float64(len(lat))))
	out.info["setup_s_samples"] = setups
	if len(lat) <= 64 {
		out.info["latencies_ms"] = lat
	}
}

func runLibrary(cfg config, spec libSpec) (*outcome, error) {
	ctx := context.Background()
	n := opCount(cfg.seconds, spec.opSeconds, minLibOps)
	seeds := libOps(spec, n, cfg.seed)
	out := &outcome{metrics: map[string]float64{}, info: map[string]any{"ops": n}}

	var eng *qplacer.Engine
	var setups []float64
	for range setupRepeats {
		e, d, err := librarySetup(ctx, spec)
		if err != nil {
			return nil, err
		}
		eng = e
		setups = append(setups, d.Seconds())
	}

	// One untimed op outside the op set runs the whole pipeline once, so
	// the heap has grown to its working size and the place loop has
	// calibrated its granularity before the first timed op.
	var warm opRecord
	if err := libraryOp(ctx, eng, warmupSeed, &warm); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	runtime.GC()

	plain := libraryPass(ctx, eng, spec, seeds, false)
	out.info["input_digest"], out.info["input_set_digest"] = inputDigests(plain.ops)
	out.attempted, out.failed = len(plain.ops), failedOps(plain.ops)
	out.problems = append(out.problems, plain.failures...)
	out.quality = qualityOf(plain.ops)
	if !cfg.trace {
		endToEndMetrics(out, plain.phase, plain.ops, setups)
		return out, nil
	}

	if err := registerTraced(); err != nil {
		return nil, err
	}
	if err := layerSetupMetrics(out, []string{spec.topology}, libMappings); err != nil {
		return nil, err
	}
	tally.reset()
	before := eng.Stats()
	tr := libraryPass(ctx, eng, spec, seeds, true)
	after := eng.Stats()
	out.attempted += len(tr.ops)
	out.failed += failedOps(tr.ops)
	out.problems = append(out.problems, tr.failures...)
	for i := range tr.ops {
		if !tr.ops[i].failed && !plain.ops[i].failed && tr.ops[i].layout != plain.ops[i].layout {
			out.problems = append(out.problems, fmt.Sprintf("%s: traced layout differs from the untraced one", tr.ops[i].key))
		}
	}

	nOps := float64(n)
	placeMS, legalMS, detailMS := backendMetrics(out.metrics, tally.snapshot(), nOps)
	var planMS, validateMS, fidelityMS, metricsMS, metricsSpan, placeSpan, legalSpan float64
	var vErrors int
	for _, o := range tr.ops {
		planMS += o.planMS
		validateMS += o.validateMS
		fidelityMS += o.fidelityMS
		metricsMS += o.metricsMS
		metricsSpan += o.metricsSpanMS
		placeSpan += o.placeSpanMS
		legalSpan += o.legalSpanMS
		vErrors += o.validateErrors
	}
	m := out.metrics
	m["metrics.ms_per_op"] = metricsMS / nOps
	m["validate.ms_per_op"] = validateMS / nOps
	m["validate.errors_per_op"] = float64(vErrors) / nOps
	m["fidelity.ms_per_op"] = fidelityMS / nOps
	m["fidelity.us_per_mapping"] = fidelityMS * 1000 / (nOps * float64(len(qplacer.Benchmarks())*libMappings))
	m["engine.plan_cache_hit_ratio"] = ratio(float64(after.PlanCacheHits-before.PlanCacheHits),
		float64(after.PlanCacheHits+after.PlanCacheMisses-before.PlanCacheHits-before.PlanCacheMisses))
	m["engine.stage_cache_hit_ratio"] = ratio(float64(after.StageCacheHits-before.StageCacheHits),
		float64(after.StageCacheHits+after.StageCacheMisses-before.StageCacheHits-before.StageCacheMisses))
	// The metrics layer ran inside Plan too; the engine's own span of that
	// call is what the plan wall time contains.
	m["engine.overhead_ms_per_op"] = (planMS - placeMS - legalMS - detailMS - metricsSpan) / nOps
	for _, k := range []string{"server.submit_ms_p50", "server.queue_wait_ms_p50", "server.run_ms_p50",
		"server.result_ms_p50", "server.dedup_hit_ratio", "server.rejected_per_op",
		"journal.put_ms_p50", "journal.ms_per_op", "journal.puts_per_op", "journal.appends_per_op", "journal.replay_ms",
		"trace.server_journal_pct"} {
		m[k] = 0 // the library workloads do not reach the service layers
	}
	tracedLat, plainLat := sum(latencies(tr.ops)), sum(latencies(plain.ops))
	m["trace.overhead_pct"] = (tracedLat/plainLat - 1) * 100
	m["trace.layer_sum_pct"] = (placeMS + legalMS + detailMS + metricsSpan + validateMS + fidelityMS) / tracedLat * 100
	gap := spanGap(placeMS+legalMS, placeSpan+legalSpan)
	m["trace.span_gap_pct"] = gap
	if gap > 10 {
		out.problems = append(out.problems, fmt.Sprintf("wrapper-timed place/legal differ from the engine's spans by %.1f%%", gap))
	}
	out.info["traced_latency_ms_total"] = tracedLat
	out.info["untraced_latency_ms_total"] = plainLat
	return out, nil
}

// layerSetupMetrics times the cold stage builders directly, through their
// own entry points, for each topology the workload uses (summed), and the
// mapping sampler for every Table I benchmark. Each is the median of
// setupRepeats builds.
func layerSetupMetrics(out *outcome, topologies []string, mappings int) error {
	var topo, freq, comp, mapr float64
	for _, name := range topologies {
		var tT, tF, tC, tM []float64
		for range setupRepeats {
			st, err := buildStages(name)
			if err != nil {
				return err
			}
			tT, tF, tC = append(tT, st.topologyMS), append(tF, st.frequencyMS), append(tC, st.componentMS)
			t := time.Now()
			for _, b := range circuit.TableI() {
				if _, err := mapper.Sample(b.Build(), st.dev, mappings, 12345); err != nil {
					return err
				}
			}
			tM = append(tM, ms(time.Since(t)))
		}
		topo += median(tT)
		freq += median(tF)
		comp += median(tC)
		mapr += median(tM)
	}
	out.metrics["topology.setup_ms"] = topo
	out.metrics["frequency.setup_ms"] = freq
	out.metrics["component.setup_ms"] = comp
	out.metrics["mapper.setup_ms"] = mapr
	return nil
}

// stages is a topology's cold stage chain, built the way the engine's stage
// cache builds it, with each step's build time.
type stages struct {
	dev                                  *topology.Device
	nl                                   *component.Netlist
	topologyMS, frequencyMS, componentMS float64 // frequency includes the collision map
}

func buildStages(name string) (*stages, error) {
	opts, err := qplacer.Options{Topology: name}.Normalized()
	if err != nil {
		return nil, err
	}
	st := &stages{}
	t := time.Now()
	if st.dev, err = topology.ByName(name); err != nil {
		return nil, err
	}
	st.topologyMS = ms(time.Since(t))
	t = time.Now()
	assign := frequency.Assign(st.dev, opts.DeltaC)
	st.frequencyMS = ms(time.Since(t))
	ccfg := component.DefaultConfig()
	ccfg.SegmentSize = opts.LB
	t = time.Now()
	if st.nl, err = component.Build(st.dev, assign.QubitFreq, assign.ResFreq, ccfg); err != nil {
		return nil, err
	}
	st.componentMS = ms(time.Since(t))
	t = time.Now()
	frequency.BuildCollisionMap(st.nl, opts.DeltaC)
	st.frequencyMS += ms(time.Since(t))
	return st, nil
}

// backendMetrics fills the place, legal and detail metrics of a traced pass
// of nOps ops from the wrappers' tally, and returns each layer's total ms.
func backendMetrics(m map[string]float64, l layerCounts, nOps float64) (placeMS, legalMS, detailMS float64) {
	placeMS, legalMS, detailMS = ms(l.place), ms(l.legal), ms(l.detail)
	m["place.ms_per_op"] = placeMS / nOps
	m["place.iters_per_op"] = float64(l.placeIters) / nOps
	m["place.us_per_iter"] = ratio(placeMS*1000, float64(l.placeIters))
	m["place.alloc_mb_per_op"] = float64(l.placeAlloc) / (1 << 20) / nOps
	m["legal.ms_per_op"] = legalMS / nOps
	m["legal.alloc_mb_per_op"] = float64(l.legalAlloc) / (1 << 20) / nOps
	m["legal.gc_cycles_per_op"] = float64(l.legalGC) / nOps
	m["detail.ms_per_op"] = detailMS / nOps
	m["detail.moved_per_op"] = float64(l.detailMoved) / nOps
	return placeMS, legalMS, detailMS
}

// spanGap is the difference, in percent, between the place+legal time the
// wrappers measured and the engine's own place+legalize spans. The two are
// compared as a sum: a tiny legalization's span also covers the wrappers'
// MemStats reads, which would dominate a per-layer ratio.
func spanGap(timed, spans float64) float64 {
	return math.Abs(timed-spans) / spans * 100
}
