// Package mcmf implements min-cost max-flow via successive shortest paths
// with Johnson potentials (Dijkstra on reduced costs). The placer uses it
// for the displacement-minimizing qubit legalization refinement of
// Tang et al. [88]: qubits are matched to legal sites so that total movement
// is minimized.
package mcmf

import (
	"fmt"
	"math"
)

type edge struct {
	to   int
	cap  float64
	cost float64
	flow float64
	rev  int // index of reverse edge in adj[to]
}

// Graph is a flow network over vertices 0..N-1.
type Graph struct {
	n   int
	adj [][]edge
}

// New returns an empty flow network with n vertices.
func New(n int) *Graph {
	if n <= 0 {
		panic("mcmf: vertex count must be positive")
	}
	return &Graph{n: n, adj: make([][]edge, n)}
}

// AddEdge adds a directed edge u→v with the given capacity and per-unit
// cost. Costs may be any finite float; negative costs are allowed as long as
// the network has no negative cycles (the solver runs Bellman–Ford once to
// initialize potentials).
func (g *Graph) AddEdge(u, v int, cap, cost float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mcmf: edge (%d,%d) out of range", u, v))
	}
	if cap < 0 {
		panic("mcmf: negative capacity")
	}
	g.adj[u] = append(g.adj[u], edge{to: v, cap: cap, cost: cost, rev: len(g.adj[v])})
	g.adj[v] = append(g.adj[v], edge{to: u, cap: 0, cost: -cost, rev: len(g.adj[u]) - 1})
}

type pqItem struct {
	v    int
	dist float64
}

// pq is a binary min-heap on dist. push and pop sift exactly as
// container/heap's Push and Pop do, so equal distances pop in the same
// order, without boxing each item in an interface.
type pq []pqItem

func (p *pq) push(it pqItem) {
	h := append(*p, it)
	for j := len(h) - 1; j > 0 && h[j].dist < h[(j-1)/2].dist; j = (j - 1) / 2 {
		h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
	}
	*p = h
}

func (p *pq) pop() pqItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i, j := 0, 1; j < n; i, j = j, 2*j+1 {
		if j+1 < n && h[j+1].dist < h[j].dist {
			j++ // the right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
	}
	*p = h[:n]
	return h[n]
}

// MinCostFlow pushes up to maxFlow units from s to t, returning the amount
// of flow actually sent and its total cost.
func (g *Graph) MinCostFlow(s, t int, maxFlow float64) (flow, cost float64) {
	if s == t {
		return 0, 0
	}
	const eps = 1e-12
	pot := g.bellmanFord(s)

	dist := make([]float64, g.n)
	prevV := make([]int, g.n)
	prevE := make([]int, g.n)
	var h pq // reused across the Dijkstra passes

	for flow+eps < maxFlow {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevV[i] = -1
		}
		dist[s] = 0
		h = append(h[:0], pqItem{s, 0})
		for len(h) > 0 {
			it := h.pop()
			if it.dist > dist[it.v]+eps {
				continue
			}
			for ei := range g.adj[it.v] {
				e := &g.adj[it.v][ei]
				if e.cap-e.flow <= eps {
					continue
				}
				rc := e.cost + pot[it.v] - pot[e.to]
				if rc < 0 && rc > -1e-9 {
					rc = 0 // numerical guard
				}
				nd := dist[it.v] + rc
				if nd+eps < dist[e.to] {
					dist[e.to] = nd
					prevV[e.to] = it.v
					prevE[e.to] = ei
					h.push(pqItem{e.to, nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break // no augmenting path
		}
		for v := 0; v < g.n; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		// Find bottleneck.
		push := maxFlow - flow
		for v := t; v != s; v = prevV[v] {
			e := &g.adj[prevV[v]][prevE[v]]
			if r := e.cap - e.flow; r < push {
				push = r
			}
		}
		// Augment.
		for v := t; v != s; v = prevV[v] {
			e := &g.adj[prevV[v]][prevE[v]]
			e.flow += push
			g.adj[v][e.rev].flow -= push
			cost += push * e.cost
		}
		flow += push
	}
	return flow, cost
}

// bellmanFord computes initial potentials from s (handles negative edge
// costs; assumes no negative cycles reachable from s).
func (g *Graph) bellmanFord(s int) []float64 {
	pot := make([]float64, g.n)
	for i := range pot {
		pot[i] = math.Inf(1)
	}
	pot[s] = 0
	for iter := 0; iter < g.n-1; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if math.IsInf(pot[u], 1) {
				continue
			}
			for _, e := range g.adj[u] {
				if e.cap-e.flow > 1e-12 && pot[u]+e.cost < pot[e.to]-1e-15 {
					pot[e.to] = pot[u] + e.cost
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Unreachable vertices get potential 0 (they will never be relaxed).
	for i := range pot {
		if math.IsInf(pot[i], 1) {
			pot[i] = 0
		}
	}
	return pot
}

// Assign solves a rectangular assignment problem: costs[i][j] is the cost of
// assigning worker i to site j (len(costs) workers, len(costs[0]) sites,
// sites ≥ workers). It returns, for each worker, the chosen site index, and
// the total cost of the optimal assignment.
func Assign(costs [][]float64) ([]int, float64) {
	w := len(costs)
	if w == 0 {
		return nil, 0
	}
	sCount := len(costs[0])
	if sCount < w {
		panic("mcmf: Assign needs at least as many sites as workers")
	}
	// Nodes: 0 = source, 1..w = workers, w+1..w+sCount = sites, last = sink.
	n := 2 + w + sCount
	src, snk := 0, n-1
	g := New(n)
	// Every node's degree is known, so its adjacency is sized once: the
	// source and sink meet every worker or site, a worker the source and
	// every site, a site every worker and the sink.
	g.adj[src], g.adj[snk] = make([]edge, 0, w), make([]edge, 0, sCount)
	for j := 0; j < sCount; j++ {
		g.adj[1+w+j] = make([]edge, 0, w+1)
	}
	for i := 0; i < w; i++ {
		g.adj[1+i] = make([]edge, 0, sCount+1)
		g.AddEdge(src, 1+i, 1, 0)
		if len(costs[i]) != sCount {
			panic("mcmf: ragged cost matrix")
		}
		for j := 0; j < sCount; j++ {
			g.AddEdge(1+i, 1+w+j, 1, costs[i][j])
		}
	}
	for j := 0; j < sCount; j++ {
		g.AddEdge(1+w+j, snk, 1, 0)
	}
	flow, total := g.MinCostFlow(src, snk, float64(w))
	if flow < float64(w)-1e-9 {
		panic("mcmf: assignment infeasible")
	}
	out := make([]int, w)
	for i := 0; i < w; i++ {
		out[i] = -1
		cnt := 0
		for _, e := range g.adj[1+i] {
			if e.cap > 0 { // forward edge to a site
				if e.flow > 0.5 {
					out[i] = cnt
					break
				}
				cnt++
			}
		}
		if out[i] < 0 {
			panic("mcmf: worker left unassigned")
		}
	}
	return out, total
}
