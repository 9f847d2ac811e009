// Package frequency implements the frequency assigner of §IV-A: it
// discretizes the available qubit and resonator spectra into levels separated
// by more than the detuning threshold Δc, colours the device so that
// interconnected components land on different levels (frequency-domain
// isolation), and builds the collision map — the precomputed list of
// near-resonant instance pairs the placement engine's frequency repulsive
// force iterates over (avoiding all-to-all interactions, §IV-C1).
//
// The spectra are narrow (§III-B "frequency crowding"): 4 usable qubit
// levels in 4.8–5.2 GHz and 8 resonator levels in 6.0–7.0 GHz at
// Δc = 0.1 GHz. Larger devices therefore must reuse levels on components
// that are not directly connected — exactly the residual resonance pairs
// that spatial isolation has to handle.
package frequency

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"

	"qplacer/internal/component"
	"qplacer/internal/graph"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

// Spectrum is a frequency band in GHz.
type Spectrum struct {
	Lo, Hi float64
}

// QubitSpectrum returns the paper's qubit band Ω = 4.8–5.2 GHz.
func QubitSpectrum() Spectrum {
	return Spectrum{physics.QubitFreqLoGHz, physics.QubitFreqHiGHz}
}

// ResonatorSpectrum returns the paper's resonator band Ω_r = 6.0–7.0 GHz.
func ResonatorSpectrum() Spectrum {
	return Spectrum{physics.ResFreqLoGHz, physics.ResFreqHiGHz}
}

// Levels discretizes the band into the maximum number of evenly spaced
// levels whose pairwise separation strictly exceeds deltaC·margin. margin
// (>1) keeps levels clear of the resonance threshold despite fabrication
// variation; 1.3 is the package default used by Assign.
func (s Spectrum) Levels(deltaC, margin float64) []float64 {
	if s.Hi <= s.Lo || deltaC <= 0 || margin <= 1 {
		panic(fmt.Sprintf("frequency: invalid spectrum/threshold %v %v %v", s, deltaC, margin))
	}
	span := s.Hi - s.Lo
	minSpacing := deltaC * margin
	n := int(math.Floor(span/minSpacing)) + 1
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = (s.Lo + s.Hi) / 2
		return out
	}
	step := span / float64(n-1)
	for i := range out {
		out[i] = s.Lo + float64(i)*step
	}
	return out
}

// Assignment holds the chosen frequencies.
type Assignment struct {
	QubitFreq   []float64 // per device qubit
	ResFreq     []float64 // per coupling edge (resonator)
	QubitLevels []float64
	ResLevels   []float64
	// QubitConflicts counts qubit pairs at hop distance ≤2 that had to share
	// a level because the spectrum ran out (frequency crowding).
	QubitConflicts int
	// ResConflicts is the analogous count for resonators sharing a qubit.
	ResConflicts int
}

// DefaultMargin is the spacing guard factor applied over Δc.
const DefaultMargin = 1.3

// levelAssign assigns one of len(levels) level indices to every vertex of
// hard (direct-isolation graph) while softly avoiding conflicts on soft
// (a supergraph of hard). Vertices are processed in decreasing-degree order
// of the hard graph (the DSATUR-style priority), and each takes the level
// with no hard conflict that minimizes soft conflicts. It returns the level
// index per vertex and the number of residual hard and soft conflicts.
func levelAssign(hard, soft *graph.Graph, nLevels int) (lv []int, hardConf, softConf int) {
	n := hard.N()
	lv = make([]int, n)
	for i := range lv {
		lv[i] = -1
	}
	// BFS order from the highest-degree vertex: parents are levelled before
	// their children, so a vertex never ends up hard-blocked on all levels
	// by its own already-coloured neighbours (max degree ≤ #levels here).
	root := 0
	for v := 1; v < n; v++ {
		if hard.Degree(v) > hard.Degree(root) {
			root = v
		}
	}
	order := hard.BFSFrom(root)
	if len(order) < n {
		seen := make([]bool, n)
		for _, v := range order {
			seen[v] = true
		}
		for v := 0; v < n; v++ {
			if !seen[v] {
				order = append(order, v)
			}
		}
	}
	cost := func(v, c int) int {
		total := 0
		for _, u := range hard.Neighbors(v) {
			if lv[u] == c {
				total += 1000
			}
		}
		for _, u := range soft.Neighbors(v) {
			if lv[u] == c {
				total++
			}
		}
		return total
	}
	pickBest := func(v int) int {
		bestLevel, bestCost := 0, math.MaxInt
		for c := 0; c < nLevels; c++ {
			if cc := cost(v, c); cc < bestCost {
				bestLevel, bestCost = c, cc
			}
		}
		return bestLevel
	}
	for _, v := range order {
		lv[v] = pickBest(v)
	}
	// Repair sweeps: re-level any vertex that still hard-conflicts.
	for sweep := 0; sweep < 10; sweep++ {
		fixedAny := false
		for _, v := range order {
			if cost(v, lv[v]) >= 1000 {
				if c := pickBest(v); c != lv[v] {
					lv[v] = c
					fixedAny = true
				}
			}
		}
		if !fixedAny {
			break
		}
	}
	for _, e := range hard.Edges() {
		if lv[e[0]] == lv[e[1]] {
			hardConf++
		}
	}
	for _, e := range soft.Edges() {
		if lv[e[0]] == lv[e[1]] && !hard.HasEdge(e[0], e[1]) {
			softConf++
		}
	}
	return lv, hardConf, softConf
}

// Assign chooses frequencies so that directly coupled qubits are always
// detuned (hard requirement for fixed-frequency operation) and distance-2
// qubit pairs are detuned whenever the 4 available levels permit. Resonators
// sharing a qubit are likewise detuned over the 8 resonator levels. Residual
// same-level pairs — the frequency crowding of §III-B — are reported in the
// conflict counters and become the job of spatial isolation.
func Assign(dev *topology.Device, deltaC float64) *Assignment {
	if deltaC <= 0 {
		deltaC = physics.DetuneThresholdGHz
	}
	qLevels := QubitSpectrum().Levels(deltaC, DefaultMargin)
	rLevels := ResonatorSpectrum().Levels(deltaC, DefaultMargin)

	out := &Assignment{
		QubitFreq:   make([]float64, dev.NumQubits),
		ResFreq:     make([]float64, dev.NumEdges()),
		QubitLevels: qLevels,
		ResLevels:   rLevels,
	}

	// Qubits: direct edges hard, distance-2 pairs soft.
	d2 := dev.Graph.Power(2)
	qlv, qHard, qSoft := levelAssign(dev.Graph, d2, len(qLevels))
	for q, c := range qlv {
		out.QubitFreq[q] = qLevels[c]
	}
	out.QubitConflicts = qHard*1000 + qSoft // hard conflicts should be zero

	// Resonators: the "share a qubit" graph is the hard constraint.
	edges := dev.Edges()
	rg := graph.New(max(len(edges), 1))
	byQubit := make(map[int][]int)
	for r, e := range edges {
		byQubit[e[0]] = append(byQubit[e[0]], r)
		byQubit[e[1]] = append(byQubit[e[1]], r)
	}
	// Deterministic iteration: adjacency-list order feeds the BFS used by
	// levelAssign, so ranging over the map directly would make assignments
	// vary run to run.
	for q := 0; q < dev.NumQubits; q++ {
		rs := byQubit[q]
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				rg.AddEdge(rs[i], rs[j])
			}
		}
	}
	rlv, rHard, _ := levelAssign(rg, rg, len(rLevels))
	for r := range edges {
		out.ResFreq[r] = rLevels[rlv[r]]
	}
	out.ResConflicts = rHard
	return out
}

// Resonant reports whether two frequencies are within the detuning
// threshold (the crosstalk indicator τ of Eq. 9).
func Resonant(f1, f2, deltaC float64) bool {
	return math.Abs(f1-f2) <= deltaC
}

// NearResonant is the collision-map pair rule (Eq. 9–10): a and b are the
// same kind — qubit and resonator bands never overlap within Δc, so pairs
// are always qubit–qubit or segment–segment — not two segments of one
// resonator (the Kronecker-delta factor of Eq. 10), and Resonant within
// deltaC.
func NearResonant(a, b *component.Instance, deltaC float64) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == component.KindSegment && a.Resonator == b.Resonator {
		return false
	}
	return Resonant(a.FreqGHz, b.FreqGHz, deltaC)
}

// GuardMM is the isolation distance (mm, Chebyshev between centres) that
// legalization tries to keep between near-resonant partners of an instance
// of the given kind, and the interaction radius of detailed placement's
// frequency-margin cost: 2.5 mm for qubits, 0.65 mm for resonator segments.
func GuardMM(kind component.Kind) float64 {
	if kind == component.KindQubit {
		return 2.5
	}
	return 0.65
}

// CollisionMap answers which instance pairs are near-resonant: the pairs the
// frequency force must repel (Eq. 9), excluding pairs from the same
// resonator (the Kronecker-delta factor of Eq. 10). It is the one place the
// pipeline works out which pairs are near-resonant: placement, both
// legalizers and the detailed placers all read it, and none mutates it, so
// one map is safe to share across concurrent plans.
//
// The map stores no pair list. NearResonant reads only an instance's kind,
// exact frequency and resonator, so instances fall into frequency classes —
// one per (kind, exact FreqGHz) — and a pair is near-resonant when its
// classes resonate and its instances are not segments of one resonator. The
// assigner puts every qubit on one of 4 levels and every resonator on one of
// 8, so a device has at most a dozen classes however many pairs they imply
// (Eagle: 7 classes, 531,276 pairs).
type CollisionMap struct {
	DeltaC float64

	class  []int32 // instance ID → class
	group  []int   // instance ID → resonator for segments, the ID otherwise
	degree []int32 // instance ID → number of partners

	// Class c's members, ascending, are members[start[c]:start[c+1]].
	members []int32
	start   []int32

	// The classes sorted by (kind, frequency). Resonance within one kind is
	// an interval of frequencies, so the classes class c resonates with are
	// byFreq[lo[c]:hi[c]]; rank[c] is c's own position in byFreq.
	byFreq, rank, lo, hi []int32
}

// classKey identifies a frequency class. Frequencies are keyed by their
// bits, so two members of a class resonate with exactly the same instances.
type classKey struct {
	kind component.Kind
	freq uint64
}

// BuildCollisionMap groups the netlist's instances into frequency classes
// and works out which classes resonate. It runs in O(n log n) for n
// instances, plus the sizes of the resonance windows.
func BuildCollisionMap(nl *component.Netlist, deltaC float64) *CollisionMap {
	if deltaC <= 0 {
		deltaC = physics.DetuneThresholdGHz
	}
	n := len(nl.Instances)
	cm := &CollisionMap{
		DeltaC: deltaC,
		class:  make([]int32, n),
		group:  make([]int, n),
		degree: make([]int32, n),
	}

	// Classes in order of first appearance, and their member lists by a
	// counting sort, which keeps each list in ascending ID order.
	ids := map[classKey]int32{}
	var keys []classKey
	for i, in := range nl.Instances {
		k := classKey{in.Kind, math.Float64bits(in.FreqGHz)}
		c, ok := ids[k]
		if !ok {
			c = int32(len(keys))
			ids[k] = c
			keys = append(keys, k)
		}
		cm.class[i] = c
		cm.group[i] = i
		if in.Kind == component.KindSegment {
			cm.group[i] = in.Resonator
		}
	}
	k := len(keys)
	cm.start = make([]int32, k+1)
	for _, c := range cm.class {
		cm.start[c+1]++
	}
	for c := range k {
		cm.start[c+1] += cm.start[c]
	}
	cm.members = make([]int32, n)
	fill := slices.Clone(cm.start[:k])
	for i, c := range cm.class {
		cm.members[fill[c]] = int32(i)
		fill[c]++
	}

	// Resonance windows. For a fixed finite f1, |f1 − f2| ≤ Δc holds on an
	// interval of f2 (the rounded difference is monotone in f2), and it
	// holds at f2 = f1, so each window grows outward from the class itself
	// over its own kind. A NaN or infinite frequency resonates with nothing,
	// itself included: its window is empty.
	freq := func(c int32) float64 { return math.Float64frombits(keys[c].freq) }
	cm.byFreq = make([]int32, k)
	for c := range cm.byFreq {
		cm.byFreq[c] = int32(c)
	}
	slices.SortFunc(cm.byFreq, func(a, b int32) int {
		if keys[a].kind != keys[b].kind {
			return cmp.Compare(keys[a].kind, keys[b].kind)
		}
		return cmp.Compare(freq(a), freq(b))
	})
	cm.rank = make([]int32, k)
	cm.lo = make([]int32, k)
	cm.hi = make([]int32, k)
	for r, c := range cm.byFreq {
		cm.rank[c] = int32(r)
	}
	resonant := func(a, b int32) bool {
		return keys[a].kind == keys[b].kind && Resonant(freq(a), freq(b), deltaC)
	}
	for r, c := range cm.byFreq {
		lo, hi := r, r
		if resonant(c, c) {
			for hi = r + 1; hi < k && resonant(c, cm.byFreq[hi]); hi++ {
			}
			for lo > 0 && resonant(c, cm.byFreq[lo-1]) {
				lo--
			}
		}
		cm.lo[c], cm.hi[c] = int32(lo), int32(hi)
	}

	// Degrees: the sizes of the resonant classes, less the instance's own
	// group (itself, or its resonator's segments) within them.
	inGroup := map[[2]int]int32{} // (group, class) → members, segments only
	for i, in := range nl.Instances {
		if in.Kind == component.KindSegment {
			inGroup[[2]int{cm.group[i], int(cm.class[i])}]++
		}
	}
	for i, in := range nl.Instances {
		for _, c := range cm.window(cm.class[i]) {
			size := cm.start[c+1] - cm.start[c]
			switch {
			case in.Kind == component.KindSegment:
				size -= inGroup[[2]int{cm.group[i], int(c)}]
			case c == cm.class[i]:
				size-- // the instance itself
			}
			cm.degree[i] += size
		}
	}
	return cm
}

// window returns the classes that class c resonates with, c itself
// included unless its frequency is not finite.
func (cm *CollisionMap) window(c int32) []int32 {
	return cm.byFreq[cm.lo[c]:cm.hi[c]]
}

// classMembers returns class c's members in ascending ID order.
func (cm *CollisionMap) classMembers(c int32) []int32 {
	return cm.members[cm.start[c]:cm.start[c+1]]
}

// Len returns the number of instances the map describes.
func (cm *CollisionMap) Len() int { return len(cm.class) }

// NearResonant reports whether instances i and j form a collision pair, in
// O(1). It agrees with the package-level NearResonant on their instances.
func (cm *CollisionMap) NearResonant(i, j int) bool {
	ci, r := cm.class[i], cm.rank[cm.class[j]]
	return cm.lo[ci] <= r && r < cm.hi[ci] && cm.group[i] != cm.group[j]
}

// Degree returns the number of partners of instance i.
func (cm *CollisionMap) Degree(i int) int { return int(cm.degree[i]) }

// NumPairs returns the number of collision pairs.
func (cm *CollisionMap) NumPairs() int {
	var sum int
	for _, d := range cm.degree {
		sum += int(d)
	}
	return sum / 2
}

// Partners yields the near-resonant partners of instance i in ascending ID
// order. When i's class resonates only with itself — always, for
// frequencies the assigner chose, whose levels sit more than Δc apart — it
// walks that class's members; otherwise it merges the resonant classes'
// member lists, which costs one comparison per class per partner.
func (cm *CollisionMap) Partners(i int) iter.Seq[int] {
	return func(yield func(int) bool) {
		g := cm.group[i]
		win := cm.window(cm.class[i])
		if len(win) == 1 {
			for _, j := range cm.classMembers(win[0]) {
				if cm.group[j] != g && !yield(int(j)) {
					return
				}
			}
			return
		}
		lists := make([][]int32, 0, len(win))
		for _, c := range win {
			if m := cm.classMembers(c); len(m) > 0 {
				lists = append(lists, m)
			}
		}
		for len(lists) > 0 {
			best := 0
			for l := 1; l < len(lists); l++ {
				if lists[l][0] < lists[best][0] {
					best = l
				}
			}
			j := lists[best][0]
			if lists[best] = lists[best][1:]; len(lists[best]) == 0 {
				lists[best] = lists[len(lists)-1]
				lists = lists[:len(lists)-1]
			}
			if cm.group[j] != g && !yield(int(j)) {
				return
			}
		}
	}
}

// AllPairs yields every collision pair (i, j), i < j, in ascending
// lexicographic order.
func (cm *CollisionMap) AllPairs() iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for i := range cm.class {
			for j := range cm.Partners(i) {
				if j > i && !yield(i, j) {
					return
				}
			}
		}
	}
}
