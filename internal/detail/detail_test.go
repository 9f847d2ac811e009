package detail

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/physics"
	"qplacer/internal/place"
	"qplacer/internal/topology"
)

// placedNetlist builds and globally places one device, returning the netlist
// and its collision map — the state a detailed pass sees after legalization
// (legality itself is irrelevant to these unit tests: the passes only permute
// positions within footprint classes).
func placedNetlist(t *testing.T, devName string) (*component.Netlist, *frequency.CollisionMap) {
	t.Helper()
	dev, err := topology.ByName(devName)
	if err != nil {
		t.Fatal(err)
	}
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm := frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
	cfg := place.DefaultConfig()
	cfg.MaxIters = 60
	if _, err := place.PlaceCtx(context.Background(), nl, cm, cfg); err != nil {
		t.Fatal(err)
	}
	return nl, cm
}

func TestFootprintClassesPartition(t *testing.T) {
	nl, _ := placedNetlist(t, "grid")
	classes := footprintClasses(nl)
	if len(classes) < 2 {
		t.Fatalf("grid netlist produced %d footprint classes, want at least qubits+segments", len(classes))
	}
	seen := map[int]bool{}
	for _, c := range classes {
		if len(c.ids) == 0 {
			t.Fatal("empty footprint class")
		}
		first := nl.Instances[c.ids[0]]
		for _, id := range c.ids {
			if seen[id] {
				t.Fatalf("instance %d in two classes", id)
			}
			seen[id] = true
			in := nl.Instances[id]
			if in.Kind != first.Kind || in.W != first.W || in.H != first.H || in.Pad != first.Pad {
				t.Fatalf("class mixes footprints: %v vs %v", in, first)
			}
		}
	}
	if len(seen) != len(nl.Instances) {
		t.Fatalf("classes cover %d of %d instances", len(seen), len(nl.Instances))
	}
}

func TestIndependentSetIsIndependent(t *testing.T) {
	nl, cm := placedNetlist(t, "grid")
	inc := incidentNets(nl)
	for _, class := range footprintClasses(nl) {
		for round := 1; round <= 3; round++ {
			set := independentSet(nl, cm, inc, class.ids, round, maxSetSize)
			if len(set) > maxSetSize {
				t.Fatalf("set of %d exceeds cap %d", len(set), maxSetSize)
			}
			in := map[int]bool{}
			for _, id := range set {
				in[id] = true
			}
			for _, id := range set {
				for _, ni := range inc[id] {
					other := nl.Nets[ni][0]
					if other == id {
						other = nl.Nets[ni][1]
					}
					if other != id && in[other] {
						t.Fatalf("round %d: net partners %d and %d both selected", round, id, other)
					}
				}
				for q := range cm.Partners(id) {
					if in[q] {
						t.Fatalf("round %d: collision partners %d and %d both selected", round, id, q)
					}
				}
			}
		}
	}
}

// TestSwapDeltaWLExact holds the incremental delta to the ground truth: for
// sampled same-class pairs, swapDeltaWL must match the full-HPWL difference
// of actually performing the swap.
func TestSwapDeltaWLExact(t *testing.T) {
	nl, _ := placedNetlist(t, "grid")
	inc := incidentNets(nl)
	rng := rand.New(rand.NewSource(7))
	for _, class := range footprintClasses(nl) {
		ids := class.ids
		if len(ids) < 2 {
			continue
		}
		for k := 0; k < 50; k++ {
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if a == b {
				continue
			}
			before := place.HPWL(nl)
			delta := swapDeltaWL(nl, inc, a, b)
			nl.Instances[a].Pos, nl.Instances[b].Pos = nl.Instances[b].Pos, nl.Instances[a].Pos
			after := place.HPWL(nl)
			nl.Instances[a].Pos, nl.Instances[b].Pos = nl.Instances[b].Pos, nl.Instances[a].Pos
			if math.Abs((after-before)-delta) > 1e-9*math.Max(1, math.Abs(before)) {
				t.Fatalf("swap(%d,%d): delta %.12g, ground truth %.12g", a, b, delta, after-before)
			}
		}
	}
}

func TestMCMFNeverIncreasesHPWL(t *testing.T) {
	for _, devName := range []string{"grid", "falcon"} {
		nl, cm := placedNetlist(t, devName)
		before := place.HPWL(nl)
		res, err := MCMF(context.Background(), nl, Config{Collision: cm})
		if err != nil {
			t.Fatal(err)
		}
		if res.HPWLBefore != before {
			t.Fatalf("%s: HPWLBefore %.9g, entry %.9g", devName, res.HPWLBefore, before)
		}
		if res.HPWLAfter > before {
			t.Fatalf("%s: HPWL increased %.9g -> %.9g", devName, before, res.HPWLAfter)
		}
		if got := place.HPWL(nl); got != res.HPWLAfter {
			t.Fatalf("%s: reported after %.9g, layout %.9g", devName, res.HPWLAfter, got)
		}
	}
}

func TestSwapDeterministicPerSeedAndNeverIncreases(t *testing.T) {
	base, cm := placedNetlist(t, "grid")
	run := func(seed int64) (*Result, []float64) {
		nl := base.Clone()
		res, err := Swap(context.Background(), nl, Config{Collision: cm, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res, nl.Positions()
	}
	r1, p1 := run(42)
	r2, p2 := run(42)
	if r1.HPWLAfter != r2.HPWLAfter || r1.Moved != r2.Moved {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed, different layouts at coordinate %d", i)
		}
	}
	if r1.HPWLAfter > r1.HPWLBefore {
		t.Fatalf("swap increased HPWL: %.9g -> %.9g", r1.HPWLBefore, r1.HPWLAfter)
	}
	// Moved counts only instances resting somewhere new.
	if r1.Moved == 0 && r1.HPWLAfter != r1.HPWLBefore {
		t.Fatal("HPWL changed with zero reported moves")
	}
}

func TestPassesHonorCancellation(t *testing.T) {
	base, cm := placedNetlist(t, "grid")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MCMF(ctx, base.Clone(), Config{Collision: cm}); err != context.Canceled {
		t.Fatalf("MCMF err = %v, want context.Canceled", err)
	}
	if _, err := Swap(ctx, base.Clone(), Config{Collision: cm}); err != context.Canceled {
		t.Fatalf("Swap err = %v, want context.Canceled", err)
	}

	// Cancelling from the progress hook — the engine observer path — must
	// surface promptly too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cfg := Config{Collision: cm, Progress: func(int, float64) { cancel2() }}
	if _, err := MCMF(ctx2, base.Clone(), cfg); err != context.Canceled {
		t.Fatalf("MCMF progress-cancel err = %v, want context.Canceled", err)
	}
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	cfg3 := Config{Collision: cm, Progress: func(int, float64) { cancel3() }}
	if _, err := Swap(ctx3, base.Clone(), cfg3); err != context.Canceled {
		t.Fatalf("Swap progress-cancel err = %v, want context.Canceled", err)
	}
}
