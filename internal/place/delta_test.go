package place

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"qplacer/internal/bmgen"
	"qplacer/internal/parallel"
	"qplacer/internal/topology"
)

// runPlacement places one topology and returns the final positions.
func runPlacement(t *testing.T, topo string, mutate func(*Config)) []float64 {
	t.Helper()
	nl, cm := placeProblem(t, topo)
	cfg := DefaultConfig()
	cfg.MaxIters = 30
	if mutate != nil {
		mutate(&cfg)
	}
	if _, err := Place(nl, cm, cfg); err != nil {
		t.Fatal(err)
	}
	return nl.Positions()
}

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

// TestDeltaEvalExact is the delta-gradient exactness contract: with
// DeltaEval on — memoized evaluations plus Verlet pair lists — placements
// are bit-identical to the full recompute, serially and in parallel, on
// every topology of the golden corpus (grid, falcon, and the generated
// suite's device) in both placement modes.
func TestDeltaEvalExact(t *testing.T) {
	suite, err := registerGoldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	topos := []string{"grid", "falcon", suite}
	if !testing.Short() {
		topos = append(topos, "eagle") // ~1s per placement; skipped under -short/-race
	}
	for _, topo := range topos {
		for _, mode := range []Mode{ModeQplacer, ModeClassic} {
			want := runPlacement(t, topo, func(cfg *Config) { cfg.Mode = mode })
			for _, workers := range []int{1, 2, 3} {
				got := runPlacement(t, topo, func(cfg *Config) {
					cfg.Mode = mode
					cfg.DeltaEval = true
					cfg.Workers = workers
				})
				requireBitIdentical(t, fmt.Sprintf("%s/%v/delta/workers=%d", topo, mode, workers), got, want)
			}
		}
	}
}

// TestDeltaEvalActuallyShortCircuits guards against the delta path silently
// degrading to full recompute: repeated evaluations at the same positions
// must be served from the memo, small drifts must not rebuild the Verlet
// lists, and large drifts must.
func TestDeltaEvalActuallyShortCircuits(t *testing.T) {
	nl, cm := placeProblem(t, "falcon")
	cfg := DefaultConfig()
	cfg.DeltaEval = true
	e := newEngine(nl, cm, cfg)
	defer e.close()

	x := nl.Positions()
	grad := make([]float64, len(x))
	full := make([]float64, len(x))

	e.gradient(x, full)
	if e.memo.misses != 1 || e.memo.hits != 0 {
		t.Fatalf("first eval: hits=%d misses=%d", e.memo.hits, e.memo.misses)
	}
	e.gradient(x, grad)
	if e.memo.hits != 1 {
		t.Fatalf("repeat eval not memoized: hits=%d misses=%d", e.memo.hits, e.memo.misses)
	}
	for i := range grad {
		if grad[i] != full[i] {
			t.Fatalf("memoized gradient diverged at %d: %v != %v (bitwise)", i, grad[i], full[i])
		}
	}

	if e.vlS == nil {
		t.Fatal("segment-pair Verlet list missing")
	}
	rebuilds := e.vlS.rebuilds
	// A drift well inside margin/2 must keep the active list.
	drift := append([]float64(nil), x...)
	for i := range drift {
		drift[i] += e.vlS.margin / 100
	}
	e.gradient(drift, grad)
	if e.vlS.rebuilds != rebuilds {
		t.Fatalf("tiny drift triggered a Verlet rebuild (%d -> %d)", rebuilds, e.vlS.rebuilds)
	}
	// A drift past the guard must rebuild.
	for i := range drift {
		drift[i] += e.vlS.margin
	}
	e.gradient(drift, grad)
	if e.vlS.rebuilds <= rebuilds {
		t.Fatal("large drift did not rebuild the Verlet list")
	}
}

// TestCutoffsBitIdentical runs the same problem under every granularity
// policy — always fan out (zero cutoffs), auto-calibrated, and cutoffs so
// high every stage gates serial — at several worker counts, and requires
// bit-identical placements throughout: gating switches implementations, not
// math.
func TestCutoffsBitIdentical(t *testing.T) {
	serial := runPlacement(t, "falcon", nil)
	huge := parallel.Cutoffs{
		WirelengthItems: 1 << 30, PairItems: 1 << 30, RasterCells: 1 << 30,
		SolveCells: 1 << 30, PointItems: 1 << 30,
	}
	for _, workers := range []int{1, 2, 3, 5} {
		for name, cut := range map[string]*parallel.Cutoffs{
			"fanout": {},
			"auto":   nil,
			"serial": &huge,
		} {
			got := runPlacement(t, "falcon", func(cfg *Config) {
				cfg.Workers = workers
				cfg.Cutoffs = cut
			})
			requireBitIdentical(t, "falcon/"+name, got, serial)
		}
	}
}

// TestRenormEvalMatchesFull is the exactness contract of the renorm-only
// evaluation at the major point: at seeded random positions, the gradWL,
// gradD and overflow it produces equal evalComponents' bit for bit, whether
// it computes them (a memo miss, or delta eval off) or replays them (a memo
// hit), serially and on a pool. It also checks that a miss stores nothing:
// the memo's slots must only ever hold complete evaluations.
func TestRenormEvalMatchesFull(t *testing.T) {
	for _, delta := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("delta=%v/workers=%d", delta, workers)
			nl, cm := placeProblem(t, "falcon")
			cfg := DefaultConfig()
			cfg.DeltaEval = delta
			cfg.Workers = workers
			full := newEngine(nl, cm, cfg)
			defer full.close()
			renorm := newEngine(nl, cm, cfg)
			defer renorm.close()

			rng := rand.New(rand.NewSource(41))
			r := full.region
			xy := make([]float64, 2*len(nl.Instances))
			for trial := 0; trial < 4; trial++ {
				for i := 0; i < len(xy); i += 2 {
					xy[i] = r.Lo.X + rng.Float64()*r.W()
					xy[i+1] = r.Lo.Y + rng.Float64()*r.H()
				}
				full.evalComponents(xy)
				wantWL := append([]float64(nil), full.gradWL...)
				wantD := append([]float64(nil), full.gradD...)
				wantOver := full.overflow

				// Computed: the renorm engine has never seen xy.
				renorm.evalRenorm(xy)
				requireBitIdentical(t, label+" computed gradWL", renorm.gradWL, wantWL)
				requireBitIdentical(t, label+" computed gradD", renorm.gradD, wantD)
				requireBitIdentical(t, label+" computed overflow", []float64{renorm.overflow}, []float64{wantOver})

				// Replayed (memo on) or recomputed (memo off) on the engine
				// that just evaluated xy in full, from clobbered scratch.
				for i := range full.gradWL {
					full.gradWL[i], full.gradD[i] = 0, 0
				}
				full.overflow = -1
				full.evalRenorm(xy)
				requireBitIdentical(t, label+" repeated gradWL", full.gradWL, wantWL)
				requireBitIdentical(t, label+" repeated gradD", full.gradD, wantD)
				requireBitIdentical(t, label+" repeated overflow", []float64{full.overflow}, []float64{wantOver})
			}
			if renorm.renormEvals != 4 || renorm.fullEvals != 0 {
				t.Fatalf("%s: renorm engine ran %d renorm-only and %d full evaluations, want 4 and 0",
					label, renorm.renormEvals, renorm.fullEvals)
			}
			if delta {
				if full.memo.hits != 4 || full.renormEvals != 0 {
					t.Fatalf("%s: repeated points: %d memo hits, %d renorm-only evaluations, want 4 and 0",
						label, full.memo.hits, full.renormEvals)
				}
				// A renorm-only miss must not have stored xy.
				before := renorm.memo.hits
				renorm.evalComponents(xy)
				if renorm.memo.hits != before {
					t.Fatalf("%s: a renorm-only evaluation was stored in the memo", label)
				}
			}
		}
	}
}
