package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"qplacer/internal/bmgen"
	"qplacer/internal/obs"
	"qplacer/internal/topology"
)

// requireBitIdentical fails unless got and want agree in every bit
// (Float64bits: a +0/−0 flip counts as a difference).
func requireBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v (bitwise)", label, i, got[i], want[i])
		}
	}
}

// goldenSuite is the generated suite of the golden corpus; its random
// device is the one corpus topology that is not built in.
const goldenSuite = "../../testdata/golden/gen-random16.suite.json"

// registerGoldenSuite registers the golden suite's device under its name,
// once per test binary, and returns that name.
var registerGoldenSuite = sync.OnceValues(func() (string, error) {
	f, err := os.Open(goldenSuite)
	if err != nil {
		return "", err
	}
	defer f.Close()
	s, err := bmgen.ReadSuite(f)
	if err != nil {
		return "", err
	}
	if _, err := s.Device(); err != nil {
		return "", err
	}
	return s.Topology.Name, topology.Register(s.Topology.Name, func() *topology.Device {
		d, _ := s.Device() // validated above; a fresh device per call, as Generator asks
		return d
	})
})

// exactnessEngines builds the engine under test and a reference engine for
// the same problem. The engine under test gets fixed, distinct nonzero
// penalty weights, so every component shows in the combined gradient.
func exactnessEngines(t *testing.T, topo string, mode Mode) (e, ref *engine) {
	t.Helper()
	nl, cm := placeProblem(t, topo)
	cfg := DefaultConfig()
	cfg.Mode = mode
	e = newEngine(nl, cm, cfg)
	ref = newEngine(nl, cm, cfg)
	e.lambda, e.lambdaFQ, e.lambdaFS, e.lambdaC, e.wall = 0.7, 1.3, 0.9, 1.1, 1.5
	return e, ref
}

// requireEval fails unless an evaluation of e — its returned value, its
// gradient and the overflow it left — matches the reference bit for bit.
func requireEval(t *testing.T, label string, e *engine, value float64, grad []float64, want refEval) {
	t.Helper()
	requireBitIdentical(t, label+" value", []float64{value}, []float64{want.value})
	requireBitIdentical(t, label+" gradient", grad, want.grad)
	requireBitIdentical(t, label+" overflow", []float64{e.overflow}, []float64{want.overflow})
}

// requireRenorm fails unless a renorm-only evaluation's outputs match the
// reference's wirelength and density gradients and overflow bit for bit.
func requireRenorm(t *testing.T, label string, e *engine, gradWL, gradD []float64, want refEval) {
	t.Helper()
	requireBitIdentical(t, label+" gradWL", gradWL, want.gradWL)
	requireBitIdentical(t, label+" gradD", gradD, want.gradD)
	requireBitIdentical(t, label+" overflow", []float64{e.overflow}, []float64{want.overflow})
}

// drift returns a copy of xy with every coordinate moved by a seeded
// uniform amount in [−jitter, jitter).
func drift(rng *rand.Rand, xy []float64, jitter float64) []float64 {
	out := make([]float64, len(xy))
	for i, v := range xy {
		out[i] = v + (2*rng.Float64()-1)*jitter
	}
	return out
}

// evaluatedFamilies lists the Verlet lists of the pair families e's mode
// evaluates, skipping families with no pairs.
func evaluatedFamilies(e *engine) []*verlet {
	all := []*verlet{e.vlC}
	if e.cfg.Mode == ModeQplacer {
		all = append(all, e.vlQ, e.vlS)
	}
	var fams []*verlet
	for _, v := range all {
		if v.total > 0 {
			fams = append(fams, v)
		}
	}
	return fams
}

// walkExact drives the engine under test along a seeded position walk in
// the pattern of the placer's loop — a full evaluation at a, a renorm-only
// evaluation at a nearby major point b, then a again — and holds every
// evaluation to the full-recompute reference bit for bit. Steps between
// points a are small drifts, which must keep every Verlet list, and every
// third is a large drift, which must rebuild each one. The second
// evaluation of a must be a replay that recomputes nothing.
func walkExact(t *testing.T, topo string, mode Mode) {
	e, ref := exactnessEngines(t, topo, mode)
	fams := evaluatedFamilies(e)
	minMargin, maxMargin := math.Inf(1), 0.0
	for _, v := range fams {
		minMargin = min(minMargin, v.margin)
		maxMargin = max(maxMargin, v.margin)
	}
	// A small drift moves an instance at most √2·minMargin/16, so the two
	// that can accumulate between large drifts stay below margin/2. A large
	// drift moves one instance by maxMargin ± maxMargin/4 along x, past
	// margin/2 for every family.
	small := minMargin / 16
	rng := rand.New(rand.NewSource(7))
	grad := make([]float64, 2*len(e.nl.Instances))
	rebuilds := make([]int, len(fams))
	var fq, fs, cPot float64
	a := e.nl.Positions()
	for step := 0; step < 8; step++ {
		label := fmt.Sprintf("%s/%v/step %d", topo, mode, step)
		large := step%3 == 2
		switch {
		case large:
			a = drift(rng, a, maxMargin/4)
			a[2*rng.Intn(len(e.nl.Instances))] += maxMargin
		case step > 0:
			a = drift(rng, a, small)
		}
		for i, v := range fams {
			rebuilds[i] = v.rebuilds
		}
		want := referenceEval(ref, e, a)
		fq, fs, cPot = fq+want.fq, fs+want.fs, cPot+want.cPot
		requireEval(t, label, e, e.gradient(a, grad), grad, want)
		for i, v := range fams {
			switch got := v.rebuilds - rebuilds[i]; {
			case step == 0 && got != 1:
				t.Fatalf("%s: the first evaluation built a list %d times", label, got)
			case step > 0 && large && got != 1:
				t.Fatalf("%s: a large drift rebuilt a list %d times, want 1", label, got)
			case step > 0 && !large && got != 0:
				t.Fatalf("%s: a small drift rebuilt a list %d times, want 0", label, got)
			}
		}

		b := drift(rng, a, small)
		gradWL, gradD := e.evalRenorm(b)
		requireRenorm(t, label+" renorm at b", e, gradWL, gradD, referenceEval(ref, e, b))

		full, renorms, replays := e.fullEvals, e.renormEvals, e.replays
		var evals int
		for _, v := range fams {
			evals += v.evals
		}
		requireEval(t, label+" replay of a", e, e.gradient(a, grad), grad, want)
		for _, v := range fams {
			evals -= v.evals
		}
		if e.fullEvals != full || e.renormEvals != renorms || e.replays != replays+1 || evals != 0 {
			t.Fatalf("%s: the replay of a recomputed: %d full, %d renorm-only, %d replayed evaluations and %d Verlet checks added, want 0, 0, 1, 0",
				label, e.fullEvals-full, e.renormEvals-renorms, e.replays-replays, -evals)
		}
	}
	// The walk must exercise every evaluated pair kernel, not just zeros.
	if cPot == 0 && e.vlC.total > 0 || mode == ModeQplacer && (fq == 0 && e.vlQ.total > 0 || fs == 0 && e.vlS.total > 0) {
		t.Fatalf("%s/%v: a pair family never interacted along the walk (fq=%g fs=%g chain=%g)", topo, mode, fq, fs, cPot)
	}
}

// TestDeltaEvalExact is the delta-evaluation exactness contract: the
// replay of the last full evaluation and the Verlet active lists reproduce
// the full-recompute reference bit for bit, in the value and in every
// gradient coordinate, along position walks that keep and rebuild the
// lists. It covers every topology of the golden corpus (grid, falcon and
// the generated suite's device) and, without -short, Eagle, in both modes.
func TestDeltaEvalExact(t *testing.T) {
	suite, err := registerGoldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	topos := []string{"grid", "falcon", suite}
	if !testing.Short() {
		topos = append(topos, "eagle") // its 529k segment pairs are slow under -race
	}
	for _, topo := range topos {
		for _, mode := range []Mode{ModeQplacer, ModeClassic} {
			walkExact(t, topo, mode)
		}
	}
}

// TestDeltaEvalActuallyShortCircuits guards against the delta path silently
// degrading to full recompute: a repeat of the last full evaluation, full or
// renorm-only, must be a replay; a small drift must keep the segment
// family's Verlet list, which must skip pairs; and a large drift must
// rebuild it. Every evaluation still matches the reference.
func TestDeltaEvalActuallyShortCircuits(t *testing.T) {
	e, ref := exactnessEngines(t, "falcon", ModeQplacer)
	rng := rand.New(rand.NewSource(3))
	x := e.nl.Positions()
	grad := make([]float64, len(x))

	want := referenceEval(ref, e, x)
	requireEval(t, "first", e, e.gradient(x, grad), grad, want)
	if e.fullEvals != 1 || e.replays != 0 {
		t.Fatalf("first eval: %d full, %d replayed, want 1 and 0", e.fullEvals, e.replays)
	}
	requireEval(t, "repeat", e, e.gradient(x, grad), grad, want)
	if e.fullEvals != 1 || e.replays != 1 {
		t.Fatalf("repeat eval not replayed: %d full, %d replayed", e.fullEvals, e.replays)
	}
	gradWL, gradD := e.evalRenorm(x)
	requireRenorm(t, "renorm repeat", e, gradWL, gradD, want)
	if e.renormEvals != 0 || e.replays != 2 {
		t.Fatalf("renorm-only repeat not replayed: %d renorm-only, %d replayed", e.renormEvals, e.replays)
	}

	vs := e.vlS
	rebuilds := vs.rebuilds
	y := drift(rng, x, vs.margin/100)
	requireEval(t, "small drift", e, e.gradient(y, grad), grad, referenceEval(ref, e, y))
	if vs.rebuilds != rebuilds {
		t.Fatalf("small drift triggered a Verlet rebuild (%d -> %d)", rebuilds, vs.rebuilds)
	}
	if len(vs.active) >= vs.total {
		t.Fatalf("the segment active list holds all %d pairs: nothing is skipped", vs.total)
	}
	z := drift(rng, y, vs.margin)
	requireEval(t, "large drift", e, e.gradient(z, grad), grad, referenceEval(ref, e, z))
	if vs.rebuilds != rebuilds+1 {
		t.Fatalf("large drift: %d Verlet rebuilds, want 1", vs.rebuilds-rebuilds)
	}
}

// TestRenormEvalMatchesFull is the exactness contract of the renorm-only
// evaluation at the major point: at seeded random positions, the gradWL,
// gradD and overflow it yields match the full-recompute reference bit for
// bit, whether it computes them (a point the engine has not evaluated in
// full) or replays them (the last full evaluation's point). A computed one
// must leave the record of the last full evaluation and its component
// gradients untouched, since a later replay reads them.
func TestRenormEvalMatchesFull(t *testing.T) {
	for _, mode := range []Mode{ModeQplacer, ModeClassic} {
		label := mode.String()
		e, ref := exactnessEngines(t, "falcon", mode)
		rng := rand.New(rand.NewSource(41))
		r := e.region
		xy := make([]float64, 2*len(e.nl.Instances))
		grad := make([]float64, len(xy))
		for trial := 0; trial < 4; trial++ {
			for i := 0; i < len(xy); i += 2 {
				xy[i] = r.Lo.X + rng.Float64()*r.W()
				xy[i+1] = r.Lo.Y + rng.Float64()*r.H()
			}
			want := referenceEval(ref, e, xy)

			// Computed: the engine has never evaluated xy in full.
			record := append([]float64(nil), e.last.xy...)
			wl := append([]float64(nil), e.gradWL...)
			d := append([]float64(nil), e.gradD...)
			renorms := e.renormEvals
			gradWL, gradD := e.evalRenorm(xy)
			requireRenorm(t, label+" computed", e, gradWL, gradD, want)
			if e.renormEvals != renorms+1 {
				t.Fatalf("%s: a new point was not computed", label)
			}
			if !bitsEqual(e.last.xy, record) || !bitsEqual(e.gradWL, wl) || !bitsEqual(e.gradD, d) {
				t.Fatalf("%s: a renorm-only evaluation overwrote the last full evaluation", label)
			}

			// Replayed: the last full evaluation was at xy.
			e.gradient(xy, grad)
			e.overflow = -1
			renorms, replays := e.renormEvals, e.replays
			gradWL, gradD = e.evalRenorm(xy)
			requireRenorm(t, label+" replayed", e, gradWL, gradD, want)
			if e.renormEvals != renorms || e.replays != replays+1 {
				t.Fatalf("%s: the last full evaluation's point was not replayed", label)
			}
		}
	}
}

// TestWorkCountsFalconSerial pins the work of a falcon seed-1 Qplacer
// placement as its trace notes report it: how many evaluations were full,
// renorm-only and replayed, how many Poisson solves synthesized ψ, and each
// Verlet list's size and rebuilds. The counts are exact per seed, so a
// replay that silently stops hitting, or a guard that rebuilds more often,
// fails here with no timing involved.
func TestWorkCountsFalconSerial(t *testing.T) {
	nl, cm := placeProblem(t, "falcon")
	cfg := DefaultConfig()
	cfg.Span = obs.NewSpan("place")
	if _, err := PlaceCtx(context.Background(), nl, cm, cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Span.Snapshot()
	want := []string{
		"delta-eval: 912 gradient evaluations: 410 full, 196 renorm-only, 306 replayed",
		"verlet qubit pairs: 85 total, 15 active on average, 16 rebuilds over 410 evaluations",
		"verlet seg pairs: 18117 total, 208 active on average, 60 rebuilds over 410 evaluations",
		"verlet chain pairs: 1968 total, 264 active on average, 79 rebuilds over 410 evaluations",
	}
	if !slices.Equal(snap.Notes, want) {
		t.Errorf("place notes:\n got %q\nwant %q", snap.Notes, want)
	}
	var poisson []string
	for _, c := range snap.Children {
		if c.Name != "density" {
			continue
		}
		for _, g := range c.Children {
			if g.Name == "poisson" {
				poisson = g.Notes
			}
		}
	}
	if want := []string{"psi synthesized after 410 of 606 solves"}; !slices.Equal(poisson, want) {
		t.Errorf("poisson notes: got %q, want %q", poisson, want)
	}
}
