package anneal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
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

// reference is the annealer's neighbour search as it was before the
// annealer moved onto internal/spatial: an overlap grid keyed by a map,
// whose buckets are swap-removed as instances move, and a walk over every
// collision pair of the moved instance through per-pair arrays built from
// the collision map's pair list. It reads the annealer's positions, and
// gridMove must follow every move the annealer makes.
type reference struct {
	a         *annealer
	grid      map[[2]int][]int
	gridKey   [][2]int  // instance -> current bucket
	freqPairs [][]int   // instance -> collision pair indices
	pairOther []int32   // pair index*2 -> both endpoints (flattened)
	pairCut   []float64 // pair index -> cutoff radius
}

func newReference(a *annealer, cm *frequency.CollisionMap) *reference {
	r := &reference{a: a, grid: map[[2]int][]int{}}
	n := len(a.nl.Instances)
	r.gridKey = make([][2]int, n)
	for i := range n {
		k := r.bucketOf(i)
		r.gridKey[i] = k
		r.grid[k] = append(r.grid[k], i)
	}
	// Pair indices in ascending (i, j) order, so each instance's list is
	// ascending in partner ID.
	r.freqPairs = make([][]int, n)
	pi := 0
	for i, j := range cm.AllPairs() {
		r.pairOther = append(r.pairOther, int32(i), int32(j))
		cut := place.FreqCutoffSegMM
		if a.nl.Instances[i].Kind == component.KindQubit {
			cut = place.FreqCutoffMM
		}
		r.pairCut = append(r.pairCut, cut)
		r.freqPairs[i] = append(r.freqPairs[i], pi)
		r.freqPairs[j] = append(r.freqPairs[j], pi)
		pi++
	}
	return r
}

func (r *reference) bucketOf(i int) [2]int {
	return [2]int{
		int(math.Floor(r.a.xy[2*i] / r.a.cell)),
		int(math.Floor(r.a.xy[2*i+1] / r.a.cell)),
	}
}

func (r *reference) gridMove(i int) {
	k := r.bucketOf(i)
	old := r.gridKey[i]
	if k == old {
		return
	}
	list := r.grid[old]
	for idx, v := range list {
		if v == i {
			list[idx] = list[len(list)-1]
			r.grid[old] = list[:len(list)-1]
			break
		}
	}
	r.gridKey[i] = k
	r.grid[k] = append(r.grid[k], i)
}

// instCost is the annealer's instCost as it was before internal/spatial.
// With prefilter false, every frequency partner goes through math.Hypot,
// as before the axis prefilter.
func (r *reference) instCost(i int, x, y float64, prefilter bool) float64 {
	a := r.a
	var cost float64
	for _, ni := range a.nets[i] {
		net := a.nl.Nets[ni]
		o := net[0]
		if o == i {
			o = net[1]
		}
		cost += math.Abs(x-a.xy[2*o]) + math.Abs(y-a.xy[2*o+1])
	}
	bx := int(math.Floor(x / a.cell))
	by := int(math.Floor(y / a.cell))
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			for _, j := range r.grid[[2]int{bx + dx, by + dy}] {
				if j == i {
					continue
				}
				ox := math.Min(x+a.halfW[i], a.xy[2*j]+a.halfW[j]) - math.Max(x-a.halfW[i], a.xy[2*j]-a.halfW[j])
				if ox <= 0 {
					continue
				}
				oy := math.Min(y+a.halfH[i], a.xy[2*j+1]+a.halfH[j]) - math.Max(y-a.halfH[i], a.xy[2*j+1]-a.halfH[j])
				if oy <= 0 {
					continue
				}
				cost += overlapWeight * ox * oy
			}
		}
	}
	for _, pi := range r.freqPairs[i] {
		o := int(r.pairOther[2*pi])
		if o == i {
			o = int(r.pairOther[2*pi+1])
		}
		cut := r.pairCut[pi]
		dx, dy := x-a.xy[2*o], y-a.xy[2*o+1]
		if prefilter && (math.Abs(dx) >= cut || math.Abs(dy) >= cut) {
			continue
		}
		d := math.Hypot(dx, dy)
		if d < cut {
			gap := cut - d
			cost += gap * gap / cut
		}
	}
	return cost
}

// newTestAnnealer returns an annealer set up as Place sets it up, with its
// positions and grids filled, and its reference.
func newTestAnnealer(t *testing.T, dev *topology.Device) (*annealer, *reference) {
	t.Helper()
	nl, cm := buildProblem(t, dev)
	a := &annealer{nl: nl, rng: rand.New(rand.NewSource(5))}
	side := math.Sqrt(place.TotalChargeArea(nl) / place.TargetDensity)
	a.region = geom.NewRect(0, 0, side, side)
	a.setup(cm)
	a.initialPositions()
	a.fillGrids()
	return a, newReference(a, cm)
}

// checkProbes holds a.instCost to want bit for bit: at random positions
// inside the region and up to 10% beyond it on every side, half of them
// near a near-resonant partner; at exactly |dx| == cut and |dy| == cut
// from an instance's first partner, and one ulp inside; and at NaN
// coordinates.
func checkProbes(t *testing.T, label string, a *annealer, want func(i int, x, y float64) float64) {
	t.Helper()
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	check := func(kind string, i int, x, y float64) {
		t.Helper()
		if got, want := a.instCost(i, x, y), want(i, x, y); !same(got, want) {
			t.Fatalf("%s: %s: instCost(%d, %v, %v) = %v, reference %v", label, kind, i, x, y, got, want)
		}
	}
	partners := make([][]int, len(a.nl.Instances))
	for i := range partners {
		partners[i] = slices.Collect(a.cm.Partners(i))
	}

	rng := rand.New(rand.NewSource(9))
	n := len(a.nl.Instances)
	side := a.region.W()
	near := 0
	for trial := 0; trial < 20000; trial++ {
		i := rng.Intn(n)
		x := (1.2*rng.Float64() - 0.1) * side
		y := (1.2*rng.Float64() - 0.1) * side
		if len(partners[i]) > 0 && trial%2 == 0 {
			// Half the trials land near a partner, where the penalty bites.
			o, cut := partners[i][rng.Intn(len(partners[i]))], a.cutoff(i)
			x = a.xy[2*o] + (2*rng.Float64()-1)*1.5*cut
			y = a.xy[2*o+1] + (2*rng.Float64()-1)*1.5*cut
			if math.Hypot(x-a.xy[2*o], y-a.xy[2*o+1]) < cut {
				near++
			}
		}
		check("random", i, x, y)
	}
	if near == 0 {
		t.Fatalf("%s: no trial landed inside a partner's cutoff", label)
	}

	// offset returns a coordinate c with c − base == d exactly, searching a
	// few ulps around base + d, or NaN when rounding rules it out.
	offset := func(base, d float64) float64 {
		c := base + d
		for k := 0; k < 4; k++ {
			switch diff := c - base; {
			case diff == d:
				return c
			case diff < d:
				c = math.Nextafter(c, math.Inf(1))
			default:
				c = math.Nextafter(c, math.Inf(-1))
			}
		}
		return math.NaN()
	}
	// The first partner of every instance, at exactly |dx| == cut or
	// |dy| == cut and one ulp inside; qubit and segment pairs have
	// different cutoffs.
	exact := 0
	for i := range n {
		if len(partners[i]) == 0 {
			continue
		}
		o, cut := partners[i][0], a.cutoff(i)
		ox, oy := a.xy[2*o], a.xy[2*o+1]
		for _, d := range []float64{cut, -cut, math.Nextafter(cut, 0), math.Nextafter(-cut, 0)} {
			if x := offset(ox, d); !math.IsNaN(x) {
				exact++
				check("x boundary", i, x, oy)
			}
			if y := offset(oy, d); !math.IsNaN(y) {
				exact++
				check("y boundary", i, ox, y)
			}
		}
		check("NaN x", i, math.NaN(), oy)
		check("NaN y", i, ox, math.NaN())
		check("NaN x and y", i, math.NaN(), math.NaN())
	}
	if exact == 0 {
		t.Fatalf("%s: no boundary offset was exactly representable", label)
	}
}

// TestInstCostPrefilterExact holds instCost, which skips a frequency
// partner whose |dx| or |dy| reaches the cutoff before calling math.Hypot,
// to a version that sends every partner through math.Hypot, bit for bit.
func TestInstCostPrefilterExact(t *testing.T) {
	a, ref := newTestAnnealer(t, topology.Falcon27())
	checkProbes(t, "falcon", a, func(i int, x, y float64) float64 {
		return ref.instCost(i, x, y, false)
	})
}

// TestInstCostMatchesReference holds instCost, which finds overlapping
// neighbours and in-cutoff frequency partners through spatial grids, to
// the map grid and all-pair walk it replaced, bit for bit: on the initial
// layout, and again after enough accepted moves that swap-removal has
// reordered the overlap buckets, whose order the overlap sum follows.
func TestInstCostMatchesReference(t *testing.T) {
	devs := []*topology.Device{topology.Falcon27()}
	if !testing.Short() {
		devs = append(devs, topology.Eagle127())
	}
	for _, dev := range devs {
		a, ref := newTestAnnealer(t, dev)
		want := func(i int, x, y float64) float64 { return ref.instCost(i, x, y, true) }
		checkProbes(t, dev.Name+"/initial", a, want)

		n := len(a.nl.Instances)
		rng := rand.New(rand.NewSource(11))
		step := a.region.W() / 2
		refiled := 0
		for a.accepted < 2000 {
			i := rng.Intn(n)
			before := ref.gridKey[i]
			a.tryMove(i, step, 1e12)
			ref.gridMove(i)
			if ref.gridKey[i] != before {
				refiled++
			}
		}
		if refiled < 1000 {
			t.Fatalf("%s: only %d of %d accepted moves changed bucket", dev.Name, refiled, a.accepted)
		}
		checkProbes(t, dev.Name+"/moved", a, want)
	}
}
