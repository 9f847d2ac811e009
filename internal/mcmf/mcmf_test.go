package mcmf

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

func TestSimplePath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5, 1)
	g.AddEdge(1, 2, 3, 2)
	flow, cost := g.MinCostFlow(0, 2, 10)
	if flow != 3 || cost != 9 {
		t.Fatalf("flow=%v cost=%v, want 3, 9", flow, cost)
	}
}

func TestPrefersCheaperPath(t *testing.T) {
	// Two parallel paths: cheap with capacity 2, expensive with capacity 5.
	g := New(4)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 3, 2, 1)
	g.AddEdge(0, 2, 5, 10)
	g.AddEdge(2, 3, 5, 10)
	flow, cost := g.MinCostFlow(0, 3, 4)
	if flow != 4 {
		t.Fatalf("flow = %v, want 4", flow)
	}
	// 2 units at cost 2 each + 2 units at cost 20 each = 44.
	if cost != 44 {
		t.Fatalf("cost = %v, want 44", cost)
	}
}

func TestRespectsMaxFlow(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 100, 1)
	flow, cost := g.MinCostFlow(0, 1, 7)
	if flow != 7 || cost != 7 {
		t.Fatalf("flow=%v cost=%v", flow, cost)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5, 1)
	flow, cost := g.MinCostFlow(0, 2, 5)
	if flow != 0 || cost != 0 {
		t.Fatalf("flow=%v cost=%v, want 0, 0", flow, cost)
	}
}

func TestNegativeCostEdges(t *testing.T) {
	// A negative-cost detour must be taken.
	g := New(4)
	g.AddEdge(0, 1, 1, 4)
	g.AddEdge(0, 2, 1, 1)
	g.AddEdge(2, 1, 1, -3)
	g.AddEdge(1, 3, 2, 0)
	flow, cost := g.MinCostFlow(0, 3, 2)
	if flow != 2 {
		t.Fatalf("flow = %v, want 2", flow)
	}
	// Unit via 0→2→1→3 = 1−3 = −2; unit via 0→1→3 = 4. Total = 2.
	if math.Abs(cost-2) > 1e-9 {
		t.Fatalf("cost = %v, want 2", cost)
	}
}

func TestSelfSourceSink(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1, 1)
	if f, c := g.MinCostFlow(0, 0, 5); f != 0 || c != 0 {
		t.Fatalf("self flow = %v/%v", f, c)
	}
}

func TestAssignIdentity(t *testing.T) {
	costs := [][]float64{
		{0, 5, 5},
		{5, 0, 5},
		{5, 5, 0},
	}
	got, total := Assign(costs)
	for i, j := range got {
		if i != j {
			t.Fatalf("assignment = %v", got)
		}
	}
	if total != 0 {
		t.Fatalf("total = %v, want 0", total)
	}
}

func TestAssignForcedConflict(t *testing.T) {
	// Both workers prefer site 0; optimal total must route one to site 1.
	costs := [][]float64{
		{1, 10},
		{2, 3},
	}
	got, total := Assign(costs)
	if got[0] == got[1] {
		t.Fatalf("workers share a site: %v", got)
	}
	if math.Abs(total-4) > 1e-9 { // 1 + 3
		t.Fatalf("total = %v, want 4", total)
	}
}

func TestAssignRectangular(t *testing.T) {
	// 2 workers, 4 sites.
	costs := [][]float64{
		{9, 2, 9, 9},
		{9, 1, 9, 0},
	}
	got, total := Assign(costs)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("assignment = %v", got)
	}
	if math.Abs(total-2) > 1e-9 {
		t.Fatalf("total = %v", total)
	}
}

// bruteAssign enumerates all assignments (small inputs only).
func bruteAssign(costs [][]float64) float64 {
	w := len(costs)
	s := len(costs[0])
	used := make([]bool, s)
	best := math.Inf(1)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= best {
			return
		}
		if i == w {
			best = acc
			return
		}
		for j := 0; j < s; j++ {
			if !used[j] {
				used[j] = true
				rec(i+1, acc+costs[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestAssignMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		w := 1 + rng.Intn(5)
		s := w + rng.Intn(3)
		costs := make([][]float64, w)
		for i := range costs {
			costs[i] = make([]float64, s)
			for j := range costs[i] {
				costs[i][j] = float64(rng.Intn(50))
			}
		}
		got, total := Assign(costs)
		want := bruteAssign(costs)
		if math.Abs(total-want) > 1e-6 {
			t.Fatalf("trial %d: total = %v, brute = %v (assign %v)", trial, total, want, got)
		}
		// Assignment must be injective.
		seen := map[int]bool{}
		for _, j := range got {
			if seen[j] {
				t.Fatalf("trial %d: duplicate site in %v", trial, got)
			}
			seen[j] = true
		}
	}
}

func TestAssignEmptyAndInvalid(t *testing.T) {
	if got, total := Assign(nil); got != nil || total != 0 {
		t.Fatal("empty assignment should be trivial")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when sites < workers")
		}
	}()
	Assign([][]float64{{1}, {2}})
}

func TestFlowConservationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(8)
		g := New(n)
		for i := 0; i < n*3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, float64(1+rng.Intn(10)), float64(rng.Intn(20)))
			}
		}
		flow, cost := g.MinCostFlow(0, n-1, 1e18)
		if flow < 0 || cost < 0 && flow == 0 {
			t.Fatalf("trial %d: flow=%v cost=%v", trial, flow, cost)
		}
		// Conservation at every interior vertex: net outflow 0.
		for v := 1; v < n-1; v++ {
			var net float64
			for _, e := range g.adj[v] {
				net += e.flow
			}
			if math.Abs(net) > 1e-6 {
				t.Fatalf("trial %d: conservation violated at %d: %v", trial, v, net)
			}
		}
	}
}

// boxedPQ is the container/heap adapter the typed heap replaced.
type boxedPQ []pqItem

func (p boxedPQ) Len() int           { return len(p) }
func (p boxedPQ) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p boxedPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *boxedPQ) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *boxedPQ) Pop() any {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// TestHeapMatchesContainerHeap holds the typed heap to container/heap
// along random push/pop sequences with many equal distances: every pop must
// return the same item, so the Dijkstra passes, and with them every
// assignment, keep their tie order.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var got pq
	want := &boxedPQ{}
	for step := 0; step < 20000; step++ {
		if len(got) > 0 && rng.Intn(5) < 2 {
			g, w := got.pop(), heap.Pop(want).(pqItem)
			if g != w {
				t.Fatalf("step %d: pop = %+v, container/heap %+v", step, g, w)
			}
			continue
		}
		it := pqItem{v: step, dist: float64(rng.Intn(8))}
		got.push(it)
		heap.Push(want, it)
	}
}
