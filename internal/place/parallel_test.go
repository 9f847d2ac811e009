package place

import (
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

// placeProblem builds the netlist + collision map for a topology.
func placeProblem(tb testing.TB, topo string) (*component.Netlist, *frequency.CollisionMap) {
	tb.Helper()
	dev, err := topology.ByName(topo)
	if err != nil {
		tb.Fatal(err)
	}
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return nl, frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
}

// TestParallelBitIdentical is the contract the plan cache and golden corpus
// rely on: the parallel gradient path produces bit-identical placements to
// the serial one at every worker count, including pools wider than the
// problem warrants.
func TestParallelBitIdentical(t *testing.T) {
	topos := []string{"grid", "falcon", "eagle"}
	if testing.Short() {
		topos = topos[:2] // eagle is ~1s per placement; skip it under -short/-race
	}
	for _, topo := range topos {
		run := func(workers int) []float64 {
			nl, cm := placeProblem(t, topo)
			cfg := DefaultConfig()
			cfg.MaxIters = 30
			cfg.Workers = workers
			if _, err := Place(nl, cm, cfg); err != nil {
				t.Fatal(err)
			}
			return nl.Positions()
		}
		want := run(1)
		for _, workers := range []int{2, 3, 5} {
			got := run(workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: pos[%d] = %v, want %v (bitwise)",
						topo, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelResultFields pins that the run statistics (iterations,
// overflow, HPWL) agree between serial and parallel runs too — the fields
// the benchmark harness uses for its parity columns.
func TestParallelResultFields(t *testing.T) {
	run := func(workers int) (*Result, float64) {
		nl, cm := placeProblem(t, "falcon")
		cfg := DefaultConfig()
		cfg.MaxIters = 40
		cfg.Workers = workers
		res, err := Place(nl, cm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, HPWL(nl)
	}
	serial, serialHPWL := run(1)
	parallel, parallelHPWL := run(4)
	if parallel.Iterations != serial.Iterations {
		t.Errorf("iterations = %d, want %d", parallel.Iterations, serial.Iterations)
	}
	if parallel.Overflow != serial.Overflow {
		t.Errorf("overflow = %v, want %v (bitwise)", parallel.Overflow, serial.Overflow)
	}
	if parallelHPWL != serialHPWL {
		t.Errorf("HPWL = %v, want %v (bitwise)", parallelHPWL, serialHPWL)
	}
}

// benchmarkGradient times one full gradient evaluation (all components +
// combine) on the falcon problem at a fixed worker count.
func benchmarkGradient(b *testing.B, workers int) {
	nl, cm := placeProblem(b, "falcon")
	cfg := DefaultConfig()
	cfg.Workers = workers
	e := newEngine(nl, cm, cfg)
	defer e.close()
	x := nl.Positions()
	grad := make([]float64, len(x))
	e.gradient(x, grad) // warm scratch and solver state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.gradient(x, grad)
	}
}

func BenchmarkGradientSerial(b *testing.B)   { benchmarkGradient(b, 1) }
func BenchmarkGradientParallel(b *testing.B) { benchmarkGradient(b, 4) }
