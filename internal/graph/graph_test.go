package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// distances returns BFS hop distances from src (-1 when unreachable): the
// oracle for ShortestPath.
func distances(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// validColoring reports whether color gives every vertex a colour and no
// edge joins same-coloured vertices: the oracle for DSATURColoring.
func validColoring(g *Graph, color []int) bool {
	if len(color) != g.N() {
		return false
	}
	for _, e := range g.Edges() {
		if color[e[0]] == color[e[1]] {
			return false
		}
	}
	return true
}

// numColors returns 1 + the largest colour (0 for empty input).
func numColors(color []int) int {
	m := 0
	for _, c := range color {
		m = max(m, c+1)
	}
	return m
}

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

func TestAddEdgeDedupAndSelfLoop(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 1)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge must be symmetric")
	}
	if g.HasEdge(1, 1) {
		t.Fatal("self-loop must be ignored")
	}
	if g.Degree(2) != 0 {
		t.Fatal("isolated vertex must have degree 0")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := FromEdges(4, [][2]int{{3, 2}, {1, 0}, {2, 0}})
	got := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("edges = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges = %v, want %v", got, want)
		}
	}
}

func TestBFSAndDistances(t *testing.T) {
	g := path(5)
	order := g.BFSFrom(0)
	if len(order) != 5 || order[0] != 0 || order[4] != 4 {
		t.Fatalf("BFS order = %v", order)
	}
	d := distances(g, 0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	g2 := New(3)
	g2.AddEdge(0, 1)
	d2 := distances(g2, 0)
	if d2[2] != -1 {
		t.Fatalf("unreachable vertex distance = %d, want -1", d2[2])
	}
}

func TestShortestPath(t *testing.T) {
	g := grid(3, 3)
	p := g.ShortestPath(0, 8)
	if len(p) != 5 || p[0] != 0 || p[4] != 8 {
		t.Fatalf("path = %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path edge (%d,%d) missing", p[i], p[i+1])
		}
	}
	if p := g.ShortestPath(4, 4); len(p) != 1 || p[0] != 4 {
		t.Fatalf("trivial path = %v", p)
	}
	g2 := New(2)
	if p := g2.ShortestPath(0, 1); p != nil {
		t.Fatalf("unreachable path = %v", p)
	}
}

func TestConnectivityAndComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Fatal("should be disconnected")
	}
	if !path(10).Connected() {
		t.Fatal("path should be connected")
	}
	if !New(0).Connected() {
		t.Fatal("empty graph is connected by convention")
	}
}

func TestPowerGraph(t *testing.T) {
	g := path(5)
	p1 := g.Power(1)
	if p1.M() != g.M() {
		t.Fatalf("Power(1) edges = %d, want %d", p1.M(), g.M())
	}
	p2 := g.Power(2)
	// Path 0-1-2-3-4: distance <= 2 pairs: 4 adjacent + 3 distance-2 = 7.
	if p2.M() != 7 {
		t.Fatalf("Power(2) edges = %d, want 7", p2.M())
	}
	if !p2.HasEdge(0, 2) || p2.HasEdge(0, 3) {
		t.Fatal("Power(2) adjacency wrong")
	}
}

func TestDSATURColoring(t *testing.T) {
	graphs := map[string]*Graph{
		"path":    path(10),
		"cycle5":  cycle(5),
		"grid4x4": grid(4, 4),
	}
	for name, g := range graphs {
		if col := g.DSATURColoring(); !validColoring(g, col) {
			t.Errorf("%s: invalid colouring %v", name, col)
		}
	}
	// DSATUR on bipartite graphs should find 2 colours.
	if c := grid(4, 4).DSATURColoring(); numColors(c) != 2 {
		t.Errorf("DSATUR grid colours = %d, want 2", numColors(c))
	}
	if c := cycle(5).DSATURColoring(); numColors(c) != 3 {
		t.Errorf("DSATUR C5 colours = %d, want 3", numColors(c))
	}
}

func TestValidColoringRejectsBadInput(t *testing.T) {
	g := path(3)
	if validColoring(g, []int{0, 0, 1}) {
		t.Fatal("conflicting colouring accepted")
	}
	if validColoring(g, []int{0, 1}) {
		t.Fatal("short colouring accepted")
	}
}

func TestRandomConnectedSubset(t *testing.T) {
	g := grid(5, 5)
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{1, 4, 9, 16, 25} {
		sub := g.RandomConnectedSubset(size, rng)
		if len(sub) != size {
			t.Fatalf("size %d: got %v", size, sub)
		}
		ind, _ := g.InducedSubgraph(sub)
		if !ind.Connected() {
			t.Fatalf("size %d: subset %v not connected", size, sub)
		}
	}
	if got := g.RandomConnectedSubset(26, rng); got != nil {
		t.Fatalf("oversized subset should be nil, got %v", got)
	}
	if got := g.RandomConnectedSubset(0, rng); got != nil {
		t.Fatalf("zero-size subset should be nil, got %v", got)
	}
}

func TestRandomConnectedSubsetIsSeeded(t *testing.T) {
	g := grid(6, 6)
	a := g.RandomConnectedSubset(10, rand.New(rand.NewSource(42)))
	b := g.RandomConnectedSubset(10, rand.New(rand.NewSource(42)))
	if len(a) != len(b) {
		t.Fatal("seeded subsets differ in size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded subsets differ: %v vs %v", a, b)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycle(6)
	sub, orig := g.InducedSubgraph([]int{0, 1, 2, 5})
	if sub.N() != 4 {
		t.Fatalf("N = %d", sub.N())
	}
	// Edges among {0,1,2,5}: (0,1),(1,2),(0,5) → 3 edges.
	if sub.M() != 3 {
		t.Fatalf("M = %d, want 3", sub.M())
	}
	if orig[0] != 0 || orig[3] != 5 {
		t.Fatalf("orig = %v", orig)
	}
}

// Property: DSATUR, like any greedy colouring (each vertex takes the
// smallest colour its coloured neighbours leave free), uses at most
// maxDegree+1 colours.
func TestQuickGreedyColorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		maxDeg := 0
		for v := 0; v < n; v++ {
			if g.Degree(v) > maxDeg {
				maxDeg = g.Degree(v)
			}
		}
		col := g.DSATURColoring()
		return validColoring(g, col) && numColors(col) <= maxDeg+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: DSATUR always yields a valid colouring on random graphs.
func TestQuickDSATURValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := New(n)
		for i := 0; i < n*3/2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		return validColoring(g, g.DSATURColoring())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: shortest path length equals BFS distance.
func TestQuickShortestPathMatchesDistance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		src, dst := rng.Intn(n), rng.Intn(n)
		d := distances(g, src)[dst]
		p := g.ShortestPath(src, dst)
		if d < 0 {
			return p == nil
		}
		return len(p) == d+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
