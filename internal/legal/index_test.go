package legal

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/physics"
	"qplacer/internal/place"
)

// newTestLegalizer returns a set-up legalizer over nl, region and nl's
// collision map.
func newTestLegalizer(t testing.TB, nl *component.Netlist, region geom.Rect) *legalizer {
	t.Helper()
	lg, err := newLegalizer(context.Background(), nl, region, frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lg.setup()
	lg.stats = &Result{}
	return lg
}

// TestOverlapsPlacedMatchesBruteForce checks the bucket grid against a
// scan of every placed rect under random fixes, re-fixes and queries.
// Rects straddle bucket edges, sit exactly on them, and lie far outside the
// grid: an instance with no free spot keeps its global-placement position,
// which may be anywhere. Some queries come as spiral-ordered runs around
// one target. The regions cover the usual 1 mm grid, a grid coarsened by
// the per-axis cap, and a single bucket.
func TestOverlapsPlacedMatchesBruteForce(t *testing.T) {
	const n = 300
	nl := &component.Netlist{}
	for i := 0; i < n; i++ {
		nl.Instances = append(nl.Instances, &component.Instance{
			ID: i, Kind: component.KindSegment, Resonator: i, FreqGHz: float64(i),
		})
	}
	for _, region := range []geom.Rect{
		{Hi: geom.Point{X: 12, Y: 8}},
		{Hi: geom.Point{X: 2e5, Y: 1e3}},
		{},
	} {
		lg := newTestLegalizer(t, nl, region)
		rng := rand.New(rand.NewSource(1))
		coord := func(lo float64, cells int) float64 {
			switch rng.Intn(4) {
			case 0: // on a bucket edge, in the grid or just past it
				return lo + float64(rng.Intn(cells+4)-2)*lg.cell
			case 1: // far outside the grid
				return (2*rng.Float64() - 1) * 1e7
			default: // in and around a window of at most 16 buckets mid-grid
				win := min(cells, 16)
				return lo + (float64((cells-win)/2)+(1.4*rng.Float64()-0.2)*float64(win))*lg.cell
			}
		}
		size := func() float64 {
			if rng.Intn(3) == 0 { // edges on bucket edges when centred on one
				return float64(2*(1+rng.Intn(2))) * lg.cell
			}
			return (0.05 + 3*rng.Float64()) * lg.cell
		}
		rect := func() geom.Rect {
			c := geom.Point{X: coord(lg.gridLo.X, lg.nx), Y: coord(lg.gridLo.Y, lg.ny)}
			return geom.RectAt(c, size(), size())
		}

		placed := make([]geom.Rect, n)
		isPlaced := make([]bool, n)
		hits, queries := 0, 0
		query := func(step int, q geom.Rect, skip int) {
			want := false
			for id, r := range placed {
				if isPlaced[id] && id != skip && overlapsEps(q, r) {
					want = true
					break
				}
			}
			if got := lg.overlapsPlaced(q, skip); got != want {
				t.Fatalf("region %v, step %d: overlapsPlaced(%v, skip %d) = %v, brute force %v",
					region, step, q, skip, got, want)
			}
			queries++
			if want {
				hits++
			}
		}
		for step := 0; step < 20000; step++ {
			switch id := rng.Intn(n); rng.Intn(5) {
			case 0, 1:
				placed[id], isPlaced[id] = rect(), true
				lg.fix(id, placed[id])
			case 2: // a spiral-ordered run around one target
				center, w, h := rect().Center(), size(), size()
				skip := rng.Intn(n+1) - 1
				pitch := lg.cell * (0.02 + 0.3*rng.Float64())
				for _, off := range spiralOffsets(3) {
					query(step, geom.RectAt(center.Add(off.Scale(pitch)), w, h), skip)
				}
			default:
				query(step, rect(), rng.Intn(n+1)-1)
			}
		}
		t.Logf("region %v: %d×%d buckets of %.3g mm, %d of %d queries overlapped",
			region, lg.nx, lg.ny, lg.cell, hits, queries)
		if hits < queries/20 || hits > queries*19/20 {
			t.Fatalf("region %v: %d of %d queries overlapped: the cases are too one-sided", region, hits, queries)
		}
		if lg.nx > maxGridCells+1 || lg.ny > maxGridCells+1 {
			t.Fatalf("region %v: %d×%d buckets exceed the cap", region, lg.nx, lg.ny)
		}
	}
}

// TestGuardOKMatchesBruteForce checks guardOK, partner grid and all,
// against a scan of every placed partner. Partners are placed late and
// re-fixed elsewhere between queries, some outside the region and some at
// NaN or infinite coordinates, and some queries ask about such points too.
func TestGuardOKMatchesBruteForce(t *testing.T) {
	const n = 120
	nl := &component.Netlist{}
	for i := 0; i < n; i++ {
		kind, res := component.KindSegment, i
		if i%5 == 0 {
			kind, res = component.KindQubit, -1
		}
		nl.Instances = append(nl.Instances, &component.Instance{
			ID: i, Kind: kind, Resonator: res, W: 0.3, H: 0.3, Pad: 0.1,
			FreqGHz: 6 + 0.5*float64(i%3),
		})
	}
	cm := frequency.BuildCollisionMap(nl, physics.DetuneThresholdGHz)
	region := geom.Rect{Hi: geom.Point{X: 30, Y: 30}}
	lg, err := newLegalizer(context.Background(), nl, region, cm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lg.setup()
	rng := rand.New(rand.NewSource(2))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	coord := func() float64 {
		if rng.Intn(40) == 0 {
			return special[rng.Intn(len(special))]
		}
		return 34*rng.Float64() - 2
	}
	point := func() geom.Point { return geom.Point{X: coord(), Y: coord()} }

	fails, queries := 0, 0
	query := func(step int, in *component.Instance, c geom.Point) {
		want := refGuardOK(lg, in, c)
		if got := lg.guardOK(in, c); got != want {
			t.Fatalf("step %d: guardOK(instance %d, %v) = %v, brute force %v", step, in.ID, c, got, want)
		}
		queries++
		if !want {
			fails++
		}
	}
	for step := 0; step < 20000; step++ {
		in := nl.Instances[rng.Intn(n)]
		switch rng.Intn(4) {
		case 0:
			in.Pos = point()
			lg.fix(in.ID, LegalRect(in))
		case 1, 2: // a spiral-ordered run for one instance
			c := point()
			for _, off := range spiralOffsets(2) {
				query(step, in, c.Add(off.Scale(0.3)))
			}
		default:
			query(step, in, point())
		}
	}
	t.Logf("%d of %d queries failed the guard", fails, queries)
	if fails < queries/20 || fails > queries*19/20 {
		t.Fatalf("%d of %d queries failed: the cases are too one-sided", fails, queries)
	}
}

// TestPullInPrefilterIsExact checks the claim pullIn's Chebyshev prefilter
// rests on: whenever max(|dx|, |dy|) exceeds a limit, so does Hypot(dx, dy),
// for random offsets, offsets that sit on the limit, and special values.
func TestPullInPrefilterIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	pick := func(limit float64) float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Nextafter(limit, math.Inf(2*rng.Intn(2)-1))
		default:
			return (2*rng.Float64() - 1) * 2 * limit
		}
	}
	for i := 0; i < 200000; i++ {
		limit := 2 * (0.4 + rng.Float64())
		dx, dy := pick(limit), pick(limit)
		if math.Max(math.Abs(dx), math.Abs(dy)) > limit && !(math.Hypot(dx, dy) > limit) {
			t.Fatalf("max(|%v|, |%v|) > %v but Hypot = %v", dx, dy, limit, math.Hypot(dx, dy))
		}
	}
}

// TestFindSpotDoesNotAllocate guards the probe loop: once the bucket grid
// is built, a search allocates nothing, whether it succeeds near its target
// or probes every escalation level and fails.
func TestFindSpotDoesNotAllocate(t *testing.T) {
	nl, region, _ := placedNetlist(t, "grid", place.ModeQplacer)
	lg := newTestLegalizer(t, nl, region)
	if err := lg.legalizeQubits(lg.stats); err != nil {
		t.Fatal(err)
	}
	if err := lg.legalizeSegments(lg.stats); err != nil {
		t.Fatal(err)
	}
	far := geom.Point{X: 1e4, Y: 1e4}
	for _, id := range []int{nl.QubitInst[0], nl.Resonators[0].Segments[0]} {
		in := nl.Instances[id]
		for _, want := range []geom.Point{in.Pos, far} {
			if allocs := testing.AllocsPerRun(5, func() { lg.findSpot(in, want, -1) }); allocs != 0 {
				t.Errorf("findSpot(instance %d, %v) allocates %v times per call", id, want, allocs)
			}
		}
	}
}

// BenchmarkLegalizeEagle times the shelf legalizer on an Eagle global
// placement, made once outside the timing, and reports its allocations and
// the spot search's exact work per op: the probes it evaluates, the mask
// bits its walks test, and the rects and grid queries that build the masks.
func BenchmarkLegalizeEagle(b *testing.B) {
	base, region, cm := placedNetlist(b, "eagle", place.ModeQplacer)
	b.ReportAllocs()
	var work workCounts // the same every op: the counts are exact
	for b.Loop() {
		lg, err := newLegalizer(context.Background(), base.Clone(), region, cm, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lg.run(); err != nil {
			b.Fatal(err)
		}
		work = lg.work
	}
	b.ReportMetric(float64(work.probes), "probes/op")
	b.ReportMetric(float64(work.bits), "bits/op")
	b.ReportMetric(float64(work.rasterized), "rects/op")
	b.ReportMetric(float64(work.queries), "queries/op")
}

// TestResonatorClustersOrder pins the cluster order the integration stage
// relies on: members ascending, largest cluster first, ties by smallest ID.
// Appending to one cluster, as integrate does, must leave the others intact.
func TestResonatorClustersOrder(t *testing.T) {
	at := map[int]float64{9: 0, 1: 0.4, 4: 10, 6: 10.4, 3: 10.8, 7: 20, 8: 20.4}
	nl := &component.Netlist{Resonators: []*component.Resonator{{Segments: []int{9, 4, 7, 1, 6, 3, 8}}}}
	for id := 0; id < 10; id++ {
		nl.Instances = append(nl.Instances, &component.Instance{
			ID: id, Kind: component.KindSegment, W: 0.3, H: 0.3, Pad: 0.1,
			Pos: geom.Point{X: at[id]},
		})
	}
	got := ResonatorClusters(nl, 0)
	want := [][]int{{3, 4, 6}, {1, 9}, {7, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clusters = %v, want %v", got, want)
	}
	for i := range got {
		_ = append(got[i], 99)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appending to a cluster changed the clusters to %v", got)
	}
}
