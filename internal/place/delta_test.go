package place

import (
	"fmt"
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

func requireBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pos[%d] = %v, want %v (bitwise)", label, i, got[i], want[i])
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
