package qplacer

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-corpus regression harness: checked-in fixtures pin the exact
// deterministic output — normalized options, layout metrics, validation
// verdict, and per-benchmark fidelity — of every built-in placer × legalizer
// combination on the fast topologies. Any backend whose output drifts or
// regresses fails here before it can serve a single bad layout.
//
// Regenerate after an intentional behaviour change with:
//
//	go test -run TestGoldenCorpus -update .
//
// Regeneration is idempotent: the pipeline is seeded and the encoder is
// deterministic, so running -update twice produces identical bytes.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// goldenMappings keeps fixture evaluation fast while still pinning the
// fidelity pipeline; goldenIters is enough global placement for both
// legalizers to produce clean layouts on the fast topologies.
const (
	goldenMappings = 2
	goldenIters    = 40
)

type goldenMetrics struct {
	Amer           float64 `json:"amer_mm2"`
	Apoly          float64 `json:"apoly_mm2"`
	Utilization    float64 `json:"utilization"`
	PhPercent      float64 `json:"ph_percent"`
	Violations     int     `json:"violations"`
	ImpactedQubits []int   `json:"impacted_qubits"`
}

type goldenValidation struct {
	Valid    bool `json:"valid"`
	Errors   int  `json:"errors"`
	Warnings int  `json:"warnings"`
}

type goldenEval struct {
	Benchmark    string  `json:"benchmark"`
	MeanFidelity float64 `json:"mean_fidelity"`
	MinFidelity  float64 `json:"min_fidelity"`
	MaxFidelity  float64 `json:"max_fidelity"`
}

type goldenFixture struct {
	Options         Options          `json:"options"`
	NumCells        int              `json:"num_cells"`
	PlaceIterations int              `json:"place_iterations"`
	Integrated      bool             `json:"integrated"`
	Metrics         goldenMetrics    `json:"metrics"`
	Validation      goldenValidation `json:"validation"`
	Evaluations     []goldenEval     `json:"evaluations"`
}

// goldenCombos enumerates every topology × placer × legalizer combination in
// the corpus: all 4 built-in backend pairs on both fast topologies. These
// predate the detailed-placement stage and leave DetailedPlacer unset, which
// normalizes to the identity stage — their fixtures must stay byte-identical
// forever (see TestGoldenCorpusDetailedNone).
func goldenCombos() []Options {
	var out []Options
	for _, topo := range []string{"grid", "falcon"} {
		for _, placer := range []string{"nesterov", "anneal"} {
			for _, legalizer := range []string{"shelf", "greedy"} {
				out = append(out, Options{
					Topology:  topo,
					Placer:    placer,
					Legalizer: legalizer,
					MaxIters:  goldenIters,
				})
			}
		}
	}
	return out
}

// goldenDetailedCombos pins the non-identity detailed placers on both fast
// topologies (default placer/legalizer pair).
func goldenDetailedCombos() []Options {
	var out []Options
	for _, topo := range []string{"grid", "falcon"} {
		for _, detailed := range []string{"mcmf", "swap"} {
			out = append(out, Options{
				Topology:       topo,
				Placer:         "nesterov",
				Legalizer:      "shelf",
				DetailedPlacer: detailed,
				MaxIters:       goldenIters,
			})
		}
	}
	return out
}

// goldenClassicCombos pins the crosstalk-oblivious Classic baseline of §V-B
// for both placers on both fast topologies (shelf legalizer): the placers'
// and legalizer's frequency-oblivious paths have no other fixture.
func goldenClassicCombos() []Options {
	var out []Options
	for _, topo := range []string{"grid", "falcon"} {
		for _, placer := range []string{"nesterov", "anneal"} {
			out = append(out, Options{
				Topology:  topo,
				Scheme:    SchemeClassic,
				Placer:    placer,
				Legalizer: "shelf",
				MaxIters:  goldenIters,
			})
		}
	}
	return out
}

// goldenAllCombos is every fixture in the corpus.
func goldenAllCombos() []Options {
	return append(append(goldenCombos(), goldenDetailedCombos()...), goldenClassicCombos()...)
}

func goldenName(o Options) string {
	name := fmt.Sprintf("%s_%s_%s", o.Topology, o.Placer, o.Legalizer)
	if o.DetailedPlacer != "" && o.DetailedPlacer != DefaultDetailedPlacerName {
		name += "_" + o.DetailedPlacer
	}
	if o.Scheme == SchemeClassic {
		name += "_classic"
	}
	return name
}

// loadFixture reads one corpus file and canonicalizes its options in memory:
// fixtures written before the detailed-placement stage omit detailed_placer,
// which is the disk form of the default identity stage. The files themselves
// are never rewritten — byte-identity of the legacy corpus is itself under
// test — only the in-memory comparison form is filled.
func loadFixture(t *testing.T, path string) goldenFixture {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestGoldenCorpus -update .)", err)
	}
	var want goldenFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	if want.Options.DetailedPlacer == "" {
		want.Options.DetailedPlacer = DefaultDetailedPlacerName
	}
	return want
}

// writeFixture is the -update writer. It strips the default "none" back to
// the empty string before encoding — the disk-canonical form omits the
// default via omitempty — so regeneration leaves every pre-stage fixture
// byte-identical to its checked-in form.
func writeFixture(t *testing.T, path string, fix goldenFixture) {
	t.Helper()
	if fix.Options.DetailedPlacer == DefaultDetailedPlacerName {
		fix.Options.DetailedPlacer = ""
	}
	data, err := json.MarshalIndent(fix, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// buildFixture runs the full deterministic pipeline for one combination and
// snapshots everything the corpus pins. Extra engine options let callers
// vary how the pipeline is configured without changing what it must produce.
func buildFixture(t *testing.T, o Options, extra ...Option) goldenFixture {
	t.Helper()
	ctx := context.Background()
	eng := New(append([]Option{WithValidation(ValidationAnnotate)}, extra...)...)
	plan, err := eng.Plan(ctx, WithOptions(o))
	if err != nil {
		t.Fatal(err)
	}
	m := plan.Metrics
	fix := goldenFixture{
		Options:         plan.Options,
		NumCells:        plan.NumCells,
		PlaceIterations: plan.PlaceIterations,
		Integrated:      plan.Integrated,
		Metrics: goldenMetrics{
			Amer:           m.Amer,
			Apoly:          m.Apoly,
			Utilization:    m.Utilization,
			PhPercent:      m.Ph,
			Violations:     len(m.Violations),
			ImpactedQubits: append([]int{}, m.ImpactedQubits...),
		},
		Validation: goldenValidation{
			Valid:    plan.Validation.Valid,
			Errors:   plan.Validation.Errors,
			Warnings: plan.Validation.Warnings,
		},
	}
	for _, bench := range Benchmarks() {
		ev, err := eng.Evaluate(ctx, plan, bench, goldenMappings)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		fix.Evaluations = append(fix.Evaluations, goldenEval{
			Benchmark:    ev.Benchmark,
			MeanFidelity: ev.MeanFidelity,
			MinFidelity:  ev.MinFidelity,
			MaxFidelity:  ev.MaxFidelity,
		})
	}
	return fix
}

// goldenTol absorbs cross-platform floating-point noise; the pipeline is
// bit-deterministic on one platform, so regressions show up far above this.
const goldenTol = 1e-6

func goldenClose(a, b float64) bool {
	return math.Abs(a-b) <= goldenTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// compareFixture reports every drifted field, so one run shows the whole
// regression rather than its first symptom.
func compareFixture(t *testing.T, want, got goldenFixture) {
	t.Helper()
	if got.Options != want.Options {
		t.Errorf("options drifted: %+v, want %+v", got.Options, want.Options)
	}
	if got.NumCells != want.NumCells {
		t.Errorf("num_cells = %d, want %d", got.NumCells, want.NumCells)
	}
	if got.PlaceIterations != want.PlaceIterations {
		t.Errorf("place_iterations = %d, want %d", got.PlaceIterations, want.PlaceIterations)
	}
	if got.Integrated != want.Integrated {
		t.Errorf("integrated = %v, want %v", got.Integrated, want.Integrated)
	}
	floats := []struct {
		name      string
		want, got float64
	}{
		{"amer_mm2", want.Metrics.Amer, got.Metrics.Amer},
		{"apoly_mm2", want.Metrics.Apoly, got.Metrics.Apoly},
		{"utilization", want.Metrics.Utilization, got.Metrics.Utilization},
		{"ph_percent", want.Metrics.PhPercent, got.Metrics.PhPercent},
	}
	for _, f := range floats {
		if !goldenClose(f.want, f.got) {
			t.Errorf("%s = %.9g, want %.9g", f.name, f.got, f.want)
		}
	}
	if got.Metrics.Violations != want.Metrics.Violations {
		t.Errorf("violations = %d, want %d", got.Metrics.Violations, want.Metrics.Violations)
	}
	if fmt.Sprint(got.Metrics.ImpactedQubits) != fmt.Sprint(want.Metrics.ImpactedQubits) {
		t.Errorf("impacted_qubits = %v, want %v", got.Metrics.ImpactedQubits, want.Metrics.ImpactedQubits)
	}
	if got.Validation != want.Validation {
		t.Errorf("validation = %+v, want %+v", got.Validation, want.Validation)
	}
	if len(got.Evaluations) != len(want.Evaluations) {
		t.Fatalf("evaluations = %d entries, want %d", len(got.Evaluations), len(want.Evaluations))
	}
	for i, w := range want.Evaluations {
		g := got.Evaluations[i]
		if g.Benchmark != w.Benchmark {
			t.Errorf("evaluation %d benchmark = %s, want %s", i, g.Benchmark, w.Benchmark)
			continue
		}
		for _, f := range []struct {
			name      string
			want, got float64
		}{
			{"mean_fidelity", w.MeanFidelity, g.MeanFidelity},
			{"min_fidelity", w.MinFidelity, g.MinFidelity},
			{"max_fidelity", w.MaxFidelity, g.MaxFidelity},
		} {
			if !goldenClose(f.want, f.got) {
				t.Errorf("%s %s = %.9g, want %.9g", w.Benchmark, f.name, f.got, f.want)
			}
		}
	}
}

func TestGoldenCorpus(t *testing.T) {
	for _, o := range goldenAllCombos() {
		o := o
		t.Run(goldenName(o), func(t *testing.T) {
			t.Parallel()
			got := buildFixture(t, o)
			path := filepath.Join("testdata", "golden", goldenName(o)+".json")

			if *updateGolden {
				writeFixture(t, path, got)
			}

			want := loadFixture(t, path)
			compareFixture(t, want, got)
			if t.Failed() {
				t.Logf("backend output drifted from %s; if intentional, regenerate with -update", path)
			}

			// The corpus only pins verified-clean layouts: a fixture that
			// admits error-severity violations would bless broken backends.
			if !want.Validation.Valid {
				t.Errorf("fixture %s records an invalid placement", path)
			}
		})
	}
}

// TestGoldenCorpusParallel re-runs every corpus combination — including the
// detailed-placement and Classic entries — with the deprecated
// WithParallelism option set and holds it to the same fixtures: the option
// is kept only so existing callers compile, and it must stay invisible in
// the output, byte for byte.
func TestGoldenCorpusParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel corpus re-run skipped in -short mode")
	}
	for _, o := range goldenAllCombos() {
		o := o
		t.Run(goldenName(o), func(t *testing.T) {
			t.Parallel()
			got := buildFixture(t, o, WithParallelism(3))
			path := filepath.Join("testdata", "golden", goldenName(o)+".json")
			want := loadFixture(t, path)
			compareFixture(t, want, got)
			if t.Failed() {
				t.Logf("WithParallelism(3) drifted from the fixture %s: the deprecated option is no longer a no-op", path)
			}
		})
	}
}

// TestGoldenCorpusDetailedNone is the compatibility wall for the detailed
// stage's default: every pre-stage fixture must (a) still omit the
// detailed_placer key on disk, (b) be reproduced exactly by a run that asks
// for "none" explicitly, and (c) produce byte-identical fixtures whether the
// backend is requested as "" or "none" — proving the zero value and the
// default name are the same pipeline.
func TestGoldenCorpusDetailedNone(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed-none corpus re-run skipped in -short mode")
	}
	for _, o := range goldenCombos() {
		o := o
		t.Run(goldenName(o), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", "golden", goldenName(o)+".json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test -run TestGoldenCorpus -update .)", err)
			}
			if strings.Contains(string(raw), "detailed_placer") {
				t.Fatalf("%s names a detailed_placer: the pre-stage corpus must keep its exact bytes (disk form omits the default)", path)
			}

			explicit := o
			explicit.DetailedPlacer = DefaultDetailedPlacerName
			gotExplicit := buildFixture(t, explicit)
			want := loadFixture(t, path)
			compareFixture(t, want, gotExplicit)
			if t.Failed() {
				t.Fatalf("explicit detailed_placer=none drifted from %s: \"none\" is not the identity stage", path)
			}

			gotDefault := buildFixture(t, o)
			a, err := json.MarshalIndent(gotExplicit, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.MarshalIndent(gotDefault, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("detailed_placer \"\" and %q produced different fixtures:\n%s\nvs\n%s",
					DefaultDetailedPlacerName, b, a)
			}
		})
	}
}
