package anneal

import (
	"context"
	"errors"
	"testing"
	"time"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/physics"
	"qplacer/internal/place"
	"qplacer/internal/topology"
)

func buildProblem(t *testing.T, dev *topology.Device) (*component.Netlist, *frequency.CollisionMap) {
	t.Helper()
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return nl, frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Sweeps = 40
	return cfg
}

func TestAnnealDeterministicBySeed(t *testing.T) {
	ctx := context.Background()
	run := func(seed int64) (*component.Netlist, *Result) {
		nl, cm := buildProblem(t, topology.Grid25())
		cfg := fastConfig()
		cfg.Seed = seed
		res, err := Place(ctx, nl, cm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nl, res
	}
	nl1, r1 := run(7)
	nl2, r2 := run(7)
	if r1.Sweeps != r2.Sweeps || r1.Accepted != r2.Accepted || r1.Cost != r2.Cost {
		t.Fatalf("same-seed runs diverge: %+v vs %+v", r1, r2)
	}
	for i := range nl1.Instances {
		if nl1.Instances[i].Pos != nl2.Instances[i].Pos {
			t.Fatalf("instance %d position diverges under one seed: %v vs %v",
				i, nl1.Instances[i].Pos, nl2.Instances[i].Pos)
		}
	}

	nl3, _ := run(8)
	same := true
	for i := range nl1.Instances {
		if nl1.Instances[i].Pos != nl3.Instances[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced a bit-identical layout")
	}
}

func TestAnnealImprovesWirelength(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	cfg := DefaultConfig()
	cfg.Sweeps = 120
	res, err := Place(context.Background(), nl, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps != cfg.Sweeps || res.Accepted == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if res.Cost < 0 {
		t.Fatalf("negative cost: %+v", res)
	}
	if hpwl := place.HPWL(nl); hpwl <= 0 {
		t.Fatalf("HPWL after annealing = %v", hpwl)
	}
	// Every instance must sit inside the region.
	for i, in := range nl.Instances {
		if !res.Region.Contains(in.Pos) {
			t.Fatalf("instance %d at %v escaped region %v", i, in.Pos, res.Region)
		}
	}
}

func TestAnnealProgressMonotonic(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	cfg := fastConfig()
	last := 0
	calls := 0
	cfg.Progress = func(sweep int, _ float64) {
		calls++
		if sweep != last+1 {
			t.Fatalf("sweep %d reported after %d", sweep, last)
		}
		last = sweep
	}
	if _, err := Place(context.Background(), nl, cm, cfg); err != nil {
		t.Fatal(err)
	}
	if calls != cfg.Sweeps {
		t.Fatalf("progress called %d times, want %d", calls, cfg.Sweeps)
	}
}

func TestAnnealCancellation(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	ctx, cancel := context.WithCancel(context.Background())
	cfg := fastConfig()
	cfg.Progress = func(sweep int, _ float64) {
		if sweep == 3 {
			cancel()
		}
	}
	if _, err := Place(ctx, nl, cm, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnnealRejectsBadConfig(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	bad := DefaultConfig()
	bad.Sweeps = 0
	if _, err := Place(context.Background(), nl, cm, bad); err == nil {
		t.Fatal("zero sweeps must be rejected")
	}
}

func BenchmarkAnnealGrid(b *testing.B) {
	dev := topology.Grid25()
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	for i := 0; i < b.N; i++ {
		nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cm := frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
		cfg := DefaultConfig()
		cfg.Sweeps = 40
		if _, err := Place(context.Background(), nl, cm, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAvgIterMSKeepsFractions pins the per-sweep time to the full-precision
// runtime: truncating to whole milliseconds before dividing would report 0
// for every sub-millisecond sweep.
func TestAvgIterMSKeepsFractions(t *testing.T) {
	nl, cm := buildProblem(t, topology.Grid25())
	cfg := fastConfig()
	cfg.Sweeps = 3
	res, err := Place(context.Background(), nl, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.Runtime) / float64(time.Millisecond) / float64(res.Sweeps)
	if res.AvgIterMS != want {
		t.Fatalf("AvgIterMS = %v, want %v (Runtime %v over %d sweeps)", res.AvgIterMS, want, res.Runtime, res.Sweeps)
	}
}
