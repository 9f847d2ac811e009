package spatial

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"qplacer/internal/geom"
)

func pt(x, y float64) geom.Rect { return geom.RectAt(geom.Point{X: x, Y: y}, 0, 0) }

// TestNewCellCounts pins floor(extent/cell) + 1 cells per axis: a region
// exactly a whole number of cells wide gets one more cell for its far edge,
// and a NaN extent gets one cell.
func TestNewCellCounts(t *testing.T) {
	for _, c := range []struct {
		r            geom.Rect
		cell         float64
		wantX, wantY int
	}{
		{geom.NewRect(0, 0, 10, 4), 1, 11, 5},
		{geom.NewRect(-1, 2, 2.5, 2.9), 1, 4, 1},
		{geom.NewRect(0, 0, 0, 0), 1, 1, 1},
		{geom.Rect{Hi: geom.Point{X: math.NaN(), Y: 3}}, 2, 1, 2},
	} {
		g := New(c.r, c.cell)
		if nx, ny := g.Size(); nx != c.wantX || ny != c.wantY || len(g.buckets) != nx*ny {
			t.Errorf("New(%v, %g): %d×%d cells, %d buckets; want %d×%d", c.r, c.cell, nx, ny, len(g.buckets), c.wantX, c.wantY)
		}
	}
}

// TestCellClamps checks that coordinates off the grid, infinite or NaN
// clamp into it: below the grid and NaN to the first cell, above it and
// +Inf to the last.
func TestCellClamps(t *testing.T) {
	g := New(geom.NewRect(1, -2, 5, 2), 0.5) // 9×9 cells
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		v    float64 // x; y is v − 3, the same cell
		want int
	}{
		{1, 0}, {1.49, 0}, {1.5, 1}, {4.99, 7}, {5, 8}, {5.4, 8},
		{0.99, 0}, {-100, 0}, {1e300, 8}, {-1e300, 0},
		{inf, 8}, {-inf, 0}, {nan, 0},
	} {
		if x, y := g.Cell(geom.Point{X: c.v, Y: c.v - 3}); x != c.want || y != c.want {
			t.Errorf("Cell(%v, %v) = (%d, %d), want (%d, %d)", c.v, c.v-3, x, y, c.want, c.want)
		}
	}
	if x0, y0, x1, y1 := g.Range(geom.NewRect(-inf, 0.2, 2.1, inf)); x0 != 0 || y0 != 4 || x1 != 2 || y1 != 8 {
		t.Errorf("Range = %d,%d..%d,%d, want 0,4..2,8", x0, y0, x1, y1)
	}
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {9, 0}, {0, 9}, {math.MinInt, 0}} {
		if b := g.Bucket(c[0], c[1]); b != nil {
			t.Errorf("Bucket%v off the grid = %v, want nil", c, b)
		}
	}
}

// TestAddRemoveOrder pins the bucket order: Add appends to every cell a
// rect covers, and Remove moves each bucket's last ID into the removed
// one's place.
func TestAddRemoveOrder(t *testing.T) {
	g := New(geom.NewRect(0, 0, 4, 4), 1)
	for id := range int32(5) {
		g.Add(id, pt(0.5, 0.5))
	}
	wide := geom.NewRect(0.2, 0.2, 1.5, 0.8) // cells (0, 0) and (1, 0)
	g.Add(7, wide)
	if got := g.Bucket(0, 0); !slices.Equal(got, []int32{0, 1, 2, 3, 4, 7}) {
		t.Fatalf("after adds: %v", got)
	}
	g.Remove(1, pt(0.5, 0.5))
	if got := g.Bucket(0, 0); !slices.Equal(got, []int32{0, 7, 2, 3, 4}) {
		t.Fatalf("after removing 1: %v", got)
	}
	g.Remove(7, wide)
	if got, got2 := g.Bucket(0, 0), g.Bucket(1, 0); !slices.Equal(got, []int32{0, 4, 2, 3}) || len(got2) != 0 {
		t.Fatalf("after removing 7: %v and %v", got, got2)
	}
	g.Remove(3, pt(0.5, 0.5))
	g.Add(3, pt(0.5, 0.5))
	if got := g.Bucket(0, 0); !slices.Equal(got, []int32{0, 4, 2, 3}) {
		t.Fatalf("after re-adding the last ID: %v", got)
	}
	g.Remove(9, pt(0.5, 0.5)) // absent: no change
	if got := g.Bucket(0, 0); !slices.Equal(got, []int32{0, 4, 2, 3}) {
		t.Fatalf("after removing an absent ID: %v", got)
	}
}

// TestResetRefillDoesNotAllocate checks that Reset keeps every bucket's
// capacity: refilling the grid with as many IDs per cell, as the placer's
// Verlet rebuilds do, allocates nothing.
func TestResetRefillDoesNotAllocate(t *testing.T) {
	g := New(geom.NewRect(0, 0, 10, 10), 1)
	fill := func(shift float64) {
		g.Reset()
		for id := range int32(400) {
			x := math.Mod(float64(id)*0.37+shift, 10)
			g.Add(id, pt(x, float64(id%10)))
		}
	}
	fill(0)
	if allocs := testing.AllocsPerRun(20, func() { fill(0) }); allocs != 0 {
		t.Fatalf("Reset and refill: %v allocations, want 0", allocs)
	}
	fill(0.2)
	if allocs := testing.AllocsPerRun(20, func() { fill(0.2) }); allocs != 0 {
		t.Fatalf("Reset and refill at new positions: %v allocations, want 0", allocs)
	}
}

// TestPairsMatchesBruteForce holds Pairs to the O(n²) sweep: it proposes
// every pair whose rects intersect or touch and every pair with a
// non-finite rect, each once, in ascending (i, j) order, and the same pairs
// on a second range. A few rects far out or far wider than the rest must
// not collapse the grid into one cell: those cases have a bound on the
// pairs proposed (a one-cell grid proposed 19,504 and 4,950).
func TestPairsMatchesBruteForce(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rng := rand.New(rand.NewSource(1))
	random := func(n int, side float64) []geom.Rect {
		rects := make([]geom.Rect, n)
		for i := range rects {
			x, y := rng.Float64()*side, rng.Float64()*side
			rects[i] = geom.NewRect(x, y, x+rng.Float64()*rng.Float64()*3, y+rng.Float64()*2)
		}
		return rects
	}
	with := func(rects []geom.Rect, at map[int]geom.Rect) []geom.Rect {
		for i, r := range at {
			rects[i] = r
		}
		return rects
	}
	cases := []struct {
		name  string
		rects []geom.Rect
	}{
		{"empty", nil},
		{"one", []geom.Rect{geom.NewRect(0, 0, 1, 1)}},
		{"touching", []geom.Rect{
			geom.NewRect(0, 0, 1, 1), geom.NewRect(1, 0, 2, 1), // edge
			geom.NewRect(2, 1, 3, 2),       // corner
			geom.NewRect(5, 5, 5, 5),       // a point
			geom.NewRect(4, 5, 5, 6),       // touching the point
			geom.NewRect(1.5, 0.5, 30, 30), // wide
		}},
		{"random", random(400, 40)},
		{"far_out", with(random(200, 20), map[int]geom.Rect{
			3: geom.NewRect(1e300, 1e300, 1e300, 1e300), 50: geom.NewRect(-1e300, 5, -1e300+1, 6),
			51: geom.NewRect(-1e300, 5, 1e300, 6), 120: geom.NewRect(1e300, -1e300, 1e300, -1e300),
		})},
		{"overflowing", with(random(100, 10), map[int]geom.Rect{
			7: geom.NewRect(-1.7e308, 2, 1.7e308, 3), 8: geom.NewRect(1, -1.7e308, 2, 1.7e308),
		})},
		{"non_finite", with(random(200, 20), map[int]geom.Rect{
			0: {Lo: geom.Point{X: nan, Y: 1}, Hi: geom.Point{X: 2, Y: 2}}, 17: geom.NewRect(3, 3, inf, 4),
			18: geom.NewRect(-inf, -inf, inf, inf), 90: {Lo: geom.Point{X: 1, Y: 1}, Hi: geom.Point{X: 2, Y: nan}},
			199: geom.NewRect(nan, nan, nan, nan),
		})},
		{"all_non_finite", []geom.Rect{
			geom.NewRect(nan, 0, 1, 1), geom.NewRect(0, -inf, 1, 1), geom.NewRect(0, 0, inf, 1), geom.NewRect(nan, nan, nan, nan),
		}},
	}
	most := map[string]int{"far_out": 2000, "overflowing": 1500}
	finiteRect := func(r geom.Rect) bool {
		return slices.IndexFunc([]float64{r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y}, func(v float64) bool { return v-v != 0 }) < 0
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want [][2]int
			for i, a := range c.rects {
				for j := i + 1; j < len(c.rects); j++ {
					b := c.rects[j]
					if !finiteRect(a) || !finiteRect(b) || a.Lo.X <= b.Hi.X && b.Lo.X <= a.Hi.X && a.Lo.Y <= b.Hi.Y && b.Lo.Y <= a.Hi.Y {
						want = append(want, [2]int{i, j})
					}
				}
			}
			seq := Pairs(c.rects)
			var got [][2]int
			for i, j := range seq {
				p := [2]int{i, j}
				if !(i < j) || len(got) > 0 && slices.Compare(got[len(got)-1][:], p[:]) >= 0 {
					t.Fatalf("pair %v after %v: not ascending", p, got[max(len(got)-1, 0):])
				}
				got = append(got, p)
			}
			for _, p := range want {
				if _, found := slices.BinarySearchFunc(got, p, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) }); !found {
					t.Fatalf("intersecting pair %v (%v, %v) not proposed", p, c.rects[p[0]], c.rects[p[1]])
				}
			}
			var again [][2]int
			for i, j := range seq {
				again = append(again, [2]int{i, j})
			}
			if !slices.Equal(got, again) {
				t.Fatalf("second range: %d pairs, first %d", len(again), len(got))
			}
			t.Logf("%d rects: %d candidate pairs for %d intersecting", len(c.rects), len(got), len(want))
			if m, ok := most[c.name]; ok && len(got) > m {
				t.Fatalf("%d candidate pairs, want at most %d", len(got), m)
			}
		})
	}
}

// TestPairsPrunes checks that Pairs skips pairs that lie apart: rects a
// few cells from each other share no cell, and stopping a range early
// stops it.
func TestPairsPrunes(t *testing.T) {
	var rects []geom.Rect
	for i := range 100 {
		x, y := float64(i%10)*3, float64(i/10)*3
		rects = append(rects, geom.NewRect(x, y, x+1, y+1))
	}
	for i, j := range Pairs(rects) {
		t.Fatalf("rects %d %v and %d %v, 2 apart, proposed", i, rects[i], j, rects[j])
	}
	rects = append(rects, geom.NewRect(math.NaN(), 0, 1, 1))
	n := 0
	for range Pairs(rects) {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("%d pairs before the break, want 3", n)
	}
}
