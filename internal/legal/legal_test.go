package legal

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/physics"
	"qplacer/internal/place"
	"qplacer/internal/topology"
)

// placedNetlist returns a global placement of devName, its region, and the
// netlist's collision map at the default Δc.
func placedNetlist(t testing.TB, devName string, mode place.Mode) (*component.Netlist, geom.Rect, *frequency.CollisionMap) {
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
	cfg.Mode = mode
	cfg.MaxIters = 300
	res, err := place.Place(nl, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nl, res.Region, cm
}

func TestLegalRectPolicy(t *testing.T) {
	q := &component.Instance{Kind: component.KindQubit, W: 0.4, H: 0.4, Pad: 0.4}
	if r := LegalRect(q); math.Abs(r.W()-1.2) > 1e-12 {
		t.Fatalf("qubit legal width = %v, want 1.2", r.W())
	}
	s := &component.Instance{Kind: component.KindSegment, W: 0.3, H: 0.3, Pad: 0.1}
	if r := LegalRect(s); math.Abs(r.W()-0.4) > 1e-12 {
		t.Fatalf("segment legal width = %v, want 0.4", r.W())
	}
}

func TestLegalizeRemovesAllOverlaps(t *testing.T) {
	for _, devName := range []string{"grid", "falcon"} {
		nl, region, cm := placedNetlist(t, devName, place.ModeQplacer)
		res, err := LegalizeCtx(context.Background(), nl, region, cm, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if ov := overlapReport(nl); len(ov) != 0 {
			t.Fatalf("%s: %d residual overlaps after legalization (first %v)",
				devName, len(ov), ov[0])
		}
		if res.QubitDisplacement < 0 || res.SegmentDisplacement < 0 {
			t.Fatalf("%s: negative displacement", devName)
		}
	}
}

func TestLegalizeIntegratesResonators(t *testing.T) {
	nl, region, cm := placedNetlist(t, "grid", place.ModeQplacer)
	res, err := LegalizeCtx(context.Background(), nl, region, cm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The integration stage is best-effort (Algorithm 1 repairs via free
	// spots and τ-checked swaps); under the frequency guards a congested
	// layout keeps some stragglers. Demand a majority integrated and
	// record the rest — EXPERIMENTS.md discusses the deviation.
	broken := len(res.BrokenResonators)
	if broken > len(nl.Resonators)/2 {
		t.Fatalf("%d/%d resonators fragmented", broken, len(nl.Resonators))
	}
	t.Logf("integration: %d/%d resonators fragmented after repair",
		broken, len(nl.Resonators))
}

func TestLegalizeKeepsQubitsApart(t *testing.T) {
	nl, region, cm := placedNetlist(t, "falcon", place.ModeClassic)
	if _, err := LegalizeCtx(context.Background(), nl, region, cm, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// Post-legalization, padded qubit cells are disjoint → core-to-core
	// distance ≥ 2·d_q = 0.8 mm between any two qubits.
	for i := 0; i < len(nl.QubitInst); i++ {
		for j := i + 1; j < len(nl.QubitInst); j++ {
			a := nl.Instances[nl.QubitInst[i]]
			b := nl.Instances[nl.QubitInst[j]]
			if gap := a.CoreRect().Gap(b.CoreRect()); gap < 0.8-1e-9 {
				t.Fatalf("qubits %d,%d core gap %.3f < 0.8", i, j, gap)
			}
		}
	}
}

func TestLegalizeValidation(t *testing.T) {
	nl, region, cm := placedNetlist(t, "grid", place.ModeQplacer)
	short := &frequency.CollisionMap{DeltaC: cm.DeltaC, ByInst: cm.ByInst[1:]}
	for _, m := range []*frequency.CollisionMap{nil, short} {
		if _, err := LegalizeCtx(context.Background(), nl, region, m, DefaultConfig()); err == nil {
			t.Fatalf("collision map %v must fail", m)
		}
	}
	// The bucket grid is sized from the region, so a non-finite corner must
	// be rejected like a bad config, before anything is sized or moved.
	before := nl.Positions()
	nan := math.NaN()
	for _, r := range []geom.Rect{
		{Lo: geom.Point{X: nan, Y: region.Lo.Y}, Hi: region.Hi},
		{Lo: geom.Point{X: region.Lo.X, Y: math.Inf(-1)}, Hi: region.Hi},
		{Lo: region.Lo, Hi: geom.Point{X: math.Inf(1), Y: region.Hi.Y}},
		{Lo: region.Lo, Hi: geom.Point{X: region.Hi.X, Y: nan}},
	} {
		if _, err := LegalizeCtx(context.Background(), nl, r, cm, DefaultConfig()); err == nil {
			t.Fatalf("region %v must fail", r)
		}
	}
	if !reflect.DeepEqual(nl.Positions(), before) {
		t.Fatal("a rejected region moved instances")
	}
}

func TestLegalizeIsDeterministic(t *testing.T) {
	nlA, regionA, cmA := placedNetlist(t, "grid", place.ModeQplacer)
	nlB, regionB, cmB := placedNetlist(t, "grid", place.ModeQplacer)
	if _, err := LegalizeCtx(context.Background(), nlA, regionA, cmA, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := LegalizeCtx(context.Background(), nlB, regionB, cmB, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for i := range nlA.Instances {
		if nlA.Instances[i].Pos != nlB.Instances[i].Pos {
			t.Fatalf("instance %d position differs between identical runs", i)
		}
	}
}

// TestSharedCollisionMapReadOnly runs both legalizers concurrently, two runs
// each, on clones of one placement sharing one collision map, as concurrent
// plans on one engine stage do. The map must come out deep-equal to a fresh
// build, and runs of the same legalizer must agree on every position.
func TestSharedCollisionMapReadOnly(t *testing.T) {
	base, region, cm := placedNetlist(t, "grid", place.ModeQplacer)
	want := frequency.BuildCollisionMap(base, physics.DetuneThresholdGHz)
	runs := []func(context.Context, *component.Netlist, geom.Rect, *frequency.CollisionMap, Config) (*Result, error){
		LegalizeCtx, LegalizeCtx, RowScanCtx, RowScanCtx,
	}
	nls := make([]*component.Netlist, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		nls[i] = base.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = run(context.Background(), nls[i], region, cm, DefaultConfig())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(cm, want) {
		t.Fatal("legalization modified the shared collision map")
	}
	for i := 0; i < len(runs); i += 2 {
		if !reflect.DeepEqual(nls[i].Positions(), nls[i+1].Positions()) {
			t.Fatalf("runs %d and %d of one legalizer disagree", i, i+1)
		}
	}
}
