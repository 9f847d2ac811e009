// Package graph implements the undirected-graph machinery the placer needs:
// adjacency storage, traversals, connectivity, bipartiteness, greedy and
// DSATUR colouring, distance-k power graphs, and seeded sampling of random
// connected induced subgraphs (used to draw the 50 physical-qubit subsets per
// benchmark mapping, §VI-A of the paper).
package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a simple undirected graph over vertices 0..N-1.
type Graph struct {
	n   int
	adj [][]int
	set []map[int]bool
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{
		n:   n,
		adj: make([][]int, n),
		set: make([]map[int]bool, n),
	}
	for i := range g.set {
		g.set[i] = make(map[int]bool)
	}
	return g
}

// FromEdges builds a graph with n vertices and the given edges.
func FromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate edges
// are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.check(u)
	g.check(v)
	if g.set[u][v] {
		return
	}
	g.set[u][v] = true
	g.set[v][u] = true
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.set[u][v]
}

// Neighbors returns the neighbour list of u (shared slice; do not mutate).
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	return g.adj[u]
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Edges returns all edges with u < v, sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

// BFSFrom returns the vertices reachable from src in breadth-first order.
func (g *Graph) BFSFrom(src int) []int {
	g.check(src)
	seen := make([]bool, g.n)
	order := []int{src}
	seen[src] = true
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	return order
}

// ShortestPath returns one shortest path from src to dst (inclusive), or nil
// when dst is unreachable.
func (g *Graph) ShortestPath(src, dst int) []int {
	g.check(src)
	g.check(dst)
	if src == dst {
		return []int{src}
	}
	prev := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if prev[v] < 0 {
				prev[v] = u
				if v == dst {
					queue = nil
					break
				}
				queue = append(queue, v)
			}
		}
	}
	if prev[dst] < 0 {
		return nil
	}
	var path []int
	for v := dst; v != src; v = prev[v] {
		path = append(path, v)
	}
	path = append(path, src)
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	return len(g.BFSFrom(0)) == g.n
}

// Power returns the graph whose edges connect vertices at hop distance
// 1..k in g ("distance-k" graph). Power(1) is a copy of g.
func (g *Graph) Power(k int) *Graph {
	if k < 1 {
		panic("graph: Power requires k >= 1")
	}
	out := New(g.n)
	for s := 0; s < g.n; s++ {
		// Bounded BFS to depth k.
		dist := map[int]int{s: 0}
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if dist[u] == k {
				continue
			}
			for _, v := range g.adj[u] {
				if _, ok := dist[v]; !ok {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for v := range dist {
			if v != s {
				out.AddEdge(s, v)
			}
		}
	}
	return out
}

// DSATURColoring colours the graph with the DSATUR heuristic (highest
// saturation first, ties by degree then index). It returns the colour of
// each vertex; colours are 0-based and contiguous.
func (g *Graph) DSATURColoring() []int {
	color := make([]int, g.n)
	for i := range color {
		color[i] = -1
	}
	sat := make([]map[int]bool, g.n)
	for i := range sat {
		sat[i] = make(map[int]bool)
	}
	for done := 0; done < g.n; done++ {
		// Pick uncoloured vertex with max saturation, tie-break by degree.
		best, bestSat, bestDeg := -1, -1, -1
		for v := 0; v < g.n; v++ {
			if color[v] >= 0 {
				continue
			}
			s, d := len(sat[v]), len(g.adj[v])
			if s > bestSat || (s == bestSat && d > bestDeg) {
				best, bestSat, bestDeg = v, s, d
			}
		}
		c := 0
		for sat[best][c] {
			c++
		}
		color[best] = c
		for _, v := range g.adj[best] {
			sat[v][c] = true
		}
	}
	return color
}

// RandomConnectedSubset returns a uniformly seeded random connected induced
// subset of exactly size vertices, grown by randomized BFS from a random
// start. It returns nil when the component containing the start is smaller
// than size after maxTries attempts.
func (g *Graph) RandomConnectedSubset(size int, rng *rand.Rand) []int {
	if size <= 0 || size > g.n {
		return nil
	}
	const maxTries = 64
	for try := 0; try < maxTries; try++ {
		start := rng.Intn(g.n)
		in := map[int]bool{start: true}
		frontier := append([]int(nil), g.adj[start]...)
		for len(in) < size && len(frontier) > 0 {
			i := rng.Intn(len(frontier))
			v := frontier[i]
			frontier[i] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if in[v] {
				continue
			}
			in[v] = true
			for _, w := range g.adj[v] {
				if !in[w] {
					frontier = append(frontier, w)
				}
			}
		}
		if len(in) == size {
			out := make([]int, 0, size)
			for v := range in {
				out = append(out, v)
			}
			sort.Ints(out)
			return out
		}
	}
	return nil
}

// InducedSubgraph returns the subgraph induced by verts along with the
// mapping from new index to original vertex id.
func (g *Graph) InducedSubgraph(verts []int) (*Graph, []int) {
	idx := make(map[int]int, len(verts))
	orig := append([]int(nil), verts...)
	sort.Ints(orig)
	for i, v := range orig {
		idx[v] = i
	}
	sub := New(len(orig))
	for i, v := range orig {
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && i < j {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, orig
}
