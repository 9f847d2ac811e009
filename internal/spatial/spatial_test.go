package spatial

import (
	"math"
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
