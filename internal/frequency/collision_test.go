package frequency_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"qplacer/internal/bmgen"
	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

// scanPairs is the O(n²) collision-map construction the class-based map
// replaced, kept as the reference: every instance pair tested with
// frequency.NearResonant, pairs ascending, partner lists ascending.
func scanPairs(nl *component.Netlist, deltaC float64) (pairs [][2]int, byInst [][]int) {
	byInst = make([][]int, len(nl.Instances))
	for i, a := range nl.Instances {
		for j := i + 1; j < len(nl.Instances); j++ {
			if !frequency.NearResonant(a, nl.Instances[j], deltaC) {
				continue
			}
			pairs = append(pairs, [2]int{i, j})
			byInst[i] = append(byInst[i], j)
			byInst[j] = append(byInst[j], i)
		}
	}
	return pairs, byInst
}

// requireMatchesScan holds the class-based map of nl to the pair scan: the
// pair count and sequence, NearResonant on every instance pair, and each
// instance's Partners sequence and Degree.
func requireMatchesScan(t *testing.T, label string, nl *component.Netlist, deltaC float64) {
	t.Helper()
	cm := frequency.BuildCollisionMap(nl, deltaC)
	pairs, byInst := scanPairs(nl, cm.DeltaC)
	if cm.Len() != len(nl.Instances) || cm.NumPairs() != len(pairs) {
		t.Fatalf("%s: map of %d instances, %d pairs; scan %d, %d", label, cm.Len(), cm.NumPairs(), len(nl.Instances), len(pairs))
	}
	var got [][2]int
	for i, j := range cm.AllPairs() {
		got = append(got, [2]int{i, j})
	}
	if !slices.Equal(got, pairs) {
		t.Fatalf("%s: AllPairs differs from the scan's pair list", label)
	}
	near := make([]bool, len(nl.Instances))
	for i := range nl.Instances {
		if p := slices.Collect(cm.Partners(i)); !slices.Equal(p, byInst[i]) {
			t.Fatalf("%s: Partners(%d) = %v, want %v", label, i, p, byInst[i])
		}
		if cm.Degree(i) != len(byInst[i]) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", label, i, cm.Degree(i), len(byInst[i]))
		}
		clear(near)
		for _, j := range byInst[i] {
			near[j] = true
		}
		for j := range nl.Instances {
			if cm.NearResonant(i, j) != near[j] {
				t.Fatalf("%s: NearResonant(%d, %d) = %v, want %v", label, i, j, !near[j], near[j])
			}
		}
	}
	t.Logf("%s: %d instances, %d pairs", label, len(nl.Instances), len(pairs))
}

// handBuilt returns a seeded netlist whose frequencies come from small sets
// in which resonance is not transitive at Δc 0.085 (6.00 ~ 6.08 ~ 6.16, but
// 6.00 ≁ 6.16), with a few non-finite ones; segments belong to a handful of
// resonators, so the same-resonator exclusion cuts across classes.
func handBuilt(seed int64) *component.Netlist {
	rng := rand.New(rand.NewSource(seed))
	qubitGHz := []float64{4.90, 4.98, 5.06, 5.06, 5.30, math.NaN()}
	segGHz := []float64{6.00, 6.08, 6.16, 6.16, 6.50, math.Inf(1), math.Copysign(0, -1), 0}
	nl := &component.Netlist{}
	for i := range 240 {
		in := &component.Instance{ID: i, Kind: component.KindQubit, Qubit: i, Resonator: -1}
		if rng.Intn(3) > 0 {
			in.Kind, in.Qubit, in.Resonator = component.KindSegment, -1, rng.Intn(6)
			in.FreqGHz = segGHz[rng.Intn(len(segGHz))]
		} else {
			in.FreqGHz = qubitGHz[rng.Intn(len(qubitGHz))]
		}
		nl.Instances = append(nl.Instances, in)
	}
	return nl
}

// TestCollisionMapMatchesPairScan holds the class-based collision map to
// the O(n²) pair scan it replaced on every built-in topology, on the golden
// corpus's generated suite, and on hand-built netlists with non-transitive
// resonance, non-finite frequencies and a non-default Δc.
func TestCollisionMapMatchesPairScan(t *testing.T) {
	for _, dev := range topology.All() {
		a := frequency.Assign(dev, physics.DetuneThresholdGHz)
		nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesScan(t, dev.Name, nl, physics.DetuneThresholdGHz)
	}

	f, err := os.Open("../../testdata/golden/gen-random16.suite.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := bmgen.ReadSuite(f)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	cfg := component.DefaultConfig()
	cfg.SegmentSize = s.Collisions.LBmm
	nl, err := component.Build(dev, s.Frequencies.QubitGHz, s.Frequencies.ResonatorGHz, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesScan(t, s.Topology.Name, nl, s.Frequencies.DeltaCGHz)

	for seed := range int64(4) {
		requireMatchesScan(t, fmt.Sprintf("hand-built seed %d", seed), handBuilt(seed), 0.085)
	}
}

// TestCollisionMapConcurrentReaders walks one shared map from several
// goroutines at once, as concurrent plans do, and requires each to see
// what a lone reader sees. Under -race it also checks that reading the map
// writes nothing.
func TestCollisionMapConcurrentReaders(t *testing.T) {
	dev := topology.Falcon27()
	a := frequency.Assign(dev, physics.DetuneThresholdGHz)
	nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm := frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
	walk := func() (sum int) {
		for i := range nl.Instances {
			for j := range cm.Partners(i) {
				if cm.NearResonant(i, j) {
					sum += i*len(nl.Instances) + j
				}
			}
		}
		return sum
	}
	want := walk()
	got := make([]int, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = walk()
		}()
	}
	wg.Wait()
	for g, sum := range got {
		if sum != want {
			t.Fatalf("reader %d saw checksum %d, a lone reader %d", g, sum, want)
		}
	}
}
