package qplacer

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"qplacer/internal/geom"
	"qplacer/internal/testutil"
)

func containsStr(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func TestBackendRegistriesListBuiltins(t *testing.T) {
	placers := Placers()
	for _, want := range []string{"nesterov", "anneal"} {
		if !containsStr(placers, want) {
			t.Fatalf("Placers() = %v missing %q", placers, want)
		}
	}
	legalizers := Legalizers()
	for _, want := range []string{"shelf", "greedy"} {
		if !containsStr(legalizers, want) {
			t.Fatalf("Legalizers() = %v missing %q", legalizers, want)
		}
	}
	for i := 1; i < len(placers); i++ {
		if placers[i-1] >= placers[i] {
			t.Fatalf("Placers() not sorted: %v", placers)
		}
	}
}

// stubPlacer pins every qubit to its scaled canonical coordinate and strings
// each resonator's segments along the line between its endpoint qubits — the
// smallest custom backend that still produces a placement the legalizers
// (and the conformance suite) can work with.
type stubPlacer struct{ name string }

func (s stubPlacer) Name() string { return s.name }

func (s stubPlacer) Place(ctx context.Context, st *StageState, obs Observer) (*PlaceOutcome, error) {
	nl := st.Netlist
	for q, instID := range nl.QubitInst {
		c := st.Device.Coords[q]
		nl.Instances[instID].Pos.X = c.X * 3
		nl.Instances[instID].Pos.Y = c.Y * 3
	}
	for _, res := range nl.Resonators {
		a := nl.Instances[nl.QubitInst[res.QubitA]].Pos
		b := nl.Instances[nl.QubitInst[res.QubitB]].Pos
		for k, sid := range res.Segments {
			f := float64(k+1) / float64(len(res.Segments)+1)
			nl.Instances[sid].Pos = geom.Point{X: a.X + (b.X-a.X)*f, Y: a.Y + (b.Y-a.Y)*f}
		}
	}
	obs.OnProgress(Progress{Stage: StagePlace, Backend: s.name, Iteration: 1})
	rects := nl.PaddedRects()
	region := rects[0]
	for _, r := range rects[1:] {
		region = region.Union(r)
	}
	return &PlaceOutcome{Region: region, Iterations: 1}, nil
}

func TestRegisterPlacerDuplicateAndValidation(t *testing.T) {
	name := testutil.UniqueName(t)
	p := stubPlacer{name: name}
	if err := RegisterPlacer(p); err != nil {
		t.Fatal(err)
	}
	if err := RegisterPlacer(p); !errors.Is(err, ErrDuplicatePlacer) {
		t.Fatalf("duplicate placer err = %v, want ErrDuplicatePlacer", err)
	}
	if err := RegisterPlacer(stubPlacer{}); err == nil {
		t.Fatal("empty placer name must be rejected")
	}
	if err := RegisterPlacer(nil); err == nil {
		t.Fatal("nil placer must be rejected")
	}

	// The registered backend is selectable by name and actually runs.
	eng := New()
	plan, err := eng.Plan(context.Background(),
		WithTopology("grid"), WithPlacer(name), WithSkipLegalize(true))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Options.Placer != name || plan.PlaceIterations != 1 {
		t.Fatalf("custom placer not used: %+v", plan.Options)
	}
}

// stubLegalizer is an honest minimal legalizer: it repacks every instance's
// fully padded footprint onto left-to-right shelves, which is overlap-free
// by construction — so custom-backend registrations stay conformant under
// the validation suite.
type stubLegalizer struct{ name string }

func (s stubLegalizer) Name() string { return s.name }

func (s stubLegalizer) Legalize(_ context.Context, st *StageState, region geom.Rect, obs Observer) (*LegalizeOutcome, error) {
	x, y, rowH := region.Lo.X, region.Lo.Y, 0.0
	for _, in := range st.Netlist.Instances {
		w, h := in.PaddedW(), in.PaddedH()
		if x+w > region.Hi.X && x > region.Lo.X {
			x, y, rowH = region.Lo.X, y+rowH, 0
		}
		in.Pos = geom.Point{X: x + w/2, Y: y + h/2}
		x += w
		if h > rowH {
			rowH = h
		}
	}
	obs.OnProgress(Progress{Stage: StageLegalize, Backend: s.name, Iteration: 1})
	return &LegalizeOutcome{}, nil
}

func TestRegisterLegalizerDuplicate(t *testing.T) {
	l := stubLegalizer{name: testutil.UniqueName(t)}
	if err := RegisterLegalizer(l); err != nil {
		t.Fatal(err)
	}
	if err := RegisterLegalizer(l); !errors.Is(err, ErrDuplicateLegalizer) {
		t.Fatalf("duplicate legalizer err = %v, want ErrDuplicateLegalizer", err)
	}
	if err := RegisterLegalizer(nil); err == nil {
		t.Fatal("nil legalizer must be rejected")
	}
}

// TestExternalPlacerTimedByPlaceSpan: a backend that reports only its
// region and iteration count, like README's custom Placer, still gets a
// real place time, because the engine's place span is the plan's one
// place timing and the wire carries no second one.
// It is declared after the duplicate-registration tests so the names
// those take from testutil.UniqueName, which the conformance subtests
// carry, stay the same.
func TestExternalPlacerTimedByPlaceSpan(t *testing.T) {
	name := testutil.UniqueName(t)
	if err := RegisterPlacer(stubPlacer{name: name}); err != nil {
		t.Fatal(err)
	}
	plan, err := New().Plan(context.Background(),
		WithTopology("grid"), WithPlacer(name), WithSkipLegalize(true))
	if err != nil {
		t.Fatal(err)
	}
	placeNode := plan.Timings.Find("place")
	if placeNode == nil || placeNode.WallMS <= 0 {
		t.Fatalf("place span = %+v, want a positive wall time", placeNode)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var view map[string]json.RawMessage
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	for key := range view {
		if strings.HasSuffix(key, "_ms") {
			t.Errorf("plan wire form carries %q besides its place span", key)
		}
	}
}

func TestOptionsNormalizedBackends(t *testing.T) {
	norm, err := Options{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Placer != DefaultPlacerName || norm.Legalizer != DefaultLegalizerName {
		t.Fatalf("zero options resolve to %q/%q, want %q/%q",
			norm.Placer, norm.Legalizer, DefaultPlacerName, DefaultLegalizerName)
	}
	if _, err := (Options{Placer: "warp-drive"}).Normalized(); !errors.Is(err, ErrUnknownPlacer) {
		t.Fatalf("unknown placer err = %v, want ErrUnknownPlacer", err)
	}
	if _, err := (Options{Legalizer: "warp-drive"}).Normalized(); !errors.Is(err, ErrUnknownLegalizer) {
		t.Fatalf("unknown legalizer err = %v, want ErrUnknownLegalizer", err)
	}
	if _, err := PlacerByName("warp-drive"); !errors.Is(err, ErrUnknownPlacer) {
		t.Fatalf("PlacerByName err = %v, want ErrUnknownPlacer", err)
	}
	if _, err := LegalizerByName("warp-drive"); !errors.Is(err, ErrUnknownLegalizer) {
		t.Fatalf("LegalizerByName err = %v, want ErrUnknownLegalizer", err)
	}
}

func TestOptionsBackendJSONRoundTrip(t *testing.T) {
	// Empty backend fields stay off the wire.
	data, err := json.Marshal(Options{Topology: "grid"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"placer":`) || strings.Contains(string(data), `"legalizer":`) {
		t.Fatalf("empty backends must be omitted: %s", data)
	}

	// Set fields round-trip.
	in := Options{Topology: "grid", Placer: "anneal", Legalizer: "greedy"}
	data, err = json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != in {
		t.Fatalf("round-trip %+v -> %+v", in, back)
	}

	// Unknown names pass decoding (they are plain strings) and are rejected
	// at Normalized with the typed sentinel — the contract the server's 400
	// mapping relies on.
	var bogus Options
	if err := json.Unmarshal([]byte(`{"topology":"grid","placer":"fictional"}`), &bogus); err != nil {
		t.Fatal(err)
	}
	if _, err := bogus.Normalized(); !errors.Is(err, ErrUnknownPlacer) {
		t.Fatalf("err = %v, want ErrUnknownPlacer", err)
	}
}

func TestObserverReceivesMonotonicIterations(t *testing.T) {
	// Backends call OnProgress synchronously from the goroutine running the
	// plan, so a plain slice is race-free here.
	var events []Progress
	obs := ObserverFunc(func(p Progress) { events = append(events, p) })

	eng := New(WithObserver(obs))
	_, err := eng.Plan(context.Background(), WithTopology("grid"), WithMaxIters(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("observer received no events")
	}
	lastPlace, lastLegal := 0, 0
	sawPlace, sawLegal := false, false
	for _, ev := range events {
		switch ev.Stage {
		case StagePlace:
			sawPlace = true
			if ev.Backend != DefaultPlacerName {
				t.Fatalf("place backend = %q, want %q", ev.Backend, DefaultPlacerName)
			}
			if ev.Iteration <= lastPlace {
				t.Fatalf("place iteration %d after %d: not monotonic", ev.Iteration, lastPlace)
			}
			lastPlace = ev.Iteration
		case StageLegalize:
			sawLegal = true
			if ev.Iteration <= lastLegal {
				t.Fatalf("legalize step %d after %d: not monotonic", ev.Iteration, lastLegal)
			}
			lastLegal = ev.Iteration
		default:
			t.Fatalf("unknown stage %q", ev.Stage)
		}
	}
	if !sawPlace || !sawLegal {
		t.Fatalf("stages seen: place=%v legalize=%v, want both", sawPlace, sawLegal)
	}

	// A warm cache hit replays no stage, hence no events.
	before := len(events)
	if _, err := eng.Plan(context.Background(), WithTopology("grid"), WithMaxIters(6)); err != nil {
		t.Fatal(err)
	}
	if len(events) != before {
		t.Fatalf("warm hit emitted %d extra events", len(events)-before)
	}
}

func TestAnnealBackendDeterministicBySeed(t *testing.T) {
	ctx := context.Background()
	run := func() *PlanResult {
		eng := New()
		plan, err := eng.Plan(ctx, WithTopology("grid"), WithPlacer("anneal"),
			WithMaxIters(25), WithSkipLegalize(true))
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	p1, p2 := run(), run()
	for i := range p1.Netlist.Instances {
		if p1.Netlist.Instances[i].Pos != p2.Netlist.Instances[i].Pos {
			t.Fatalf("anneal backend not deterministic: instance %d %v vs %v",
				i, p1.Netlist.Instances[i].Pos, p2.Netlist.Instances[i].Pos)
		}
	}
}

func TestPlanCacheKeyedByBackend(t *testing.T) {
	ctx := context.Background()
	eng := New(WithTopology("grid"), WithMaxIters(10), WithSkipLegalize(true))

	nesterov, err := eng.Plan(ctx, WithPlacer("nesterov"))
	if err != nil {
		t.Fatal(err)
	}
	annealed, err := eng.Plan(ctx, WithPlacer("anneal"))
	if err != nil {
		t.Fatal(err)
	}
	if nesterov == annealed {
		t.Fatal("warm cache served one backend's plan for the other")
	}
	if nesterov.Options.Placer == annealed.Options.Placer {
		t.Fatalf("backends not recorded in options: %+v vs %+v",
			nesterov.Options, annealed.Options)
	}
	// Each backend's own warm hit still works.
	again, err := eng.Plan(ctx, WithPlacer("anneal"))
	if err != nil {
		t.Fatal(err)
	}
	if again != annealed {
		t.Fatal("anneal plan not cached")
	}
	// The two legalizers are distinct cache entries too.
	shelf, err := eng.Plan(ctx, WithSkipLegalize(false), WithLegalizer("shelf"))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := eng.Plan(ctx, WithSkipLegalize(false), WithLegalizer("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	if shelf == greedy {
		t.Fatal("legalizer variants shared one cache entry")
	}
}

// TestAnnealDeterministicAcrossEngines runs the full anneal pipeline —
// placement and legalization, explicit non-default seed — on two completely
// independent engines (no shared caches) and requires bit-identical layouts
// and metrics: the reproducibility contract the golden corpus relies on.
func TestAnnealDeterministicAcrossEngines(t *testing.T) {
	ctx := context.Background()
	run := func() *PlanResult {
		eng := New() // fresh engine: cold stage and plan caches
		plan, err := eng.Plan(ctx, WithTopology("grid"), WithPlacer("anneal"),
			WithLegalizer("greedy"), WithMaxIters(30), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	p1, p2 := run(), run()
	if p1 == p2 {
		t.Fatal("independent engines shared a plan pointer")
	}
	if p1.PlaceIterations != p2.PlaceIterations {
		t.Fatalf("iterations diverge: %d vs %d", p1.PlaceIterations, p2.PlaceIterations)
	}
	for i := range p1.Netlist.Instances {
		if p1.Netlist.Instances[i].Pos != p2.Netlist.Instances[i].Pos {
			t.Fatalf("equal seeds, different engines: instance %d at %v vs %v",
				i, p1.Netlist.Instances[i].Pos, p2.Netlist.Instances[i].Pos)
		}
	}
	if p1.Metrics.Amer != p2.Metrics.Amer || p1.Metrics.Ph != p2.Metrics.Ph ||
		p1.Metrics.Utilization != p2.Metrics.Utilization {
		t.Fatalf("metrics diverge: %+v vs %+v", p1.Metrics, p2.Metrics)
	}
}

func TestGreedyLegalizerProducesLegalPlans(t *testing.T) {
	ctx := context.Background()
	eng := New()
	for _, placer := range []string{"nesterov", "anneal"} {
		plan, err := eng.Plan(ctx, WithTopology("grid"), WithPlacer(placer),
			WithLegalizer("greedy"), WithMaxIters(40))
		if err != nil {
			t.Fatalf("%s+greedy: %v", placer, err)
		}
		if plan.Metrics == nil || plan.Metrics.Amer <= 0 {
			t.Fatalf("%s+greedy: degenerate metrics %+v", placer, plan.Metrics)
		}
	}
}
