package place

import "qplacer/internal/component"

// collisionFamilies lists e's collision pairs, ascending, split into the
// qubit and segment families the engine evaluates separately.
func collisionFamilies(e *engine) (qubitPairs, segPairs [][2]int) {
	for i, j := range e.cm.AllPairs() {
		if e.nl.Instances[i].Kind == component.KindQubit {
			qubitPairs = append(qubitPairs, [2]int{i, j})
		} else {
			segPairs = append(segPairs, [2]int{i, j})
		}
	}
	return qubitPairs, segPairs
}

// pairRepulsion is the full-scan pair kernel: pairRepulsionActive's
// arithmetic over every pair of the family, in pair order. It is the
// reference the Verlet active lists are held to.
func pairRepulsion(xy []float64, pairs [][2]int, grad []float64, rcut float64) float64 {
	var total float64
	r2 := rcut * rcut
	r3 := r2 * rcut
	for _, p := range pairs {
		i, j := p[0], p[1]
		dx := xy[2*i] - xy[2*j]
		dy := xy[2*i+1] - xy[2*j+1]
		d2 := dx*dx + dy*dy
		if d2 >= r2 {
			continue
		}
		gap := r2 - d2
		total += gap * gap / r3
		// ∂U/∂xi = −4·(R²−d²)·dx / R³.
		scale := 4 * gap / r3
		grad[2*i] -= scale * dx
		grad[2*i+1] -= scale * dy
		grad[2*j] += scale * dx
		grad[2*j+1] += scale * dy
	}
	return total
}

// refEval is the reference evaluation at one point: the objective and its
// gradient under the tested engine's weights, the wirelength and density
// components the re-weighting reads, the overflow, and the pair potentials.
type refEval struct {
	value         float64
	grad          []float64
	gradWL, gradD []float64
	overflow      float64
	fq, fs, cPot  float64
}

// referenceEval evaluates the objective at xy by full recompute on ref, a
// second engine built for the same problem, and combines it with the
// weights of e exactly as engine.gradient does. Every component is computed
// (nothing is replayed) and every pair family is scanned in full with
// pairRepulsion (no Verlet list), so it is what the delta evaluation must
// reproduce bit for bit.
func referenceEval(ref, e *engine, xy []float64) refEval {
	wl := ref.wirelengthGrad(xy, ref.gradWL)
	dEnergy := ref.densityGrad(xy, ref.gradD, true)
	for i := range ref.gradFQ {
		ref.gradFQ[i], ref.gradFS[i], ref.gradC[i] = 0, 0, 0
	}
	var r refEval
	if ref.cm != nil && ref.cfg.Mode == ModeQplacer {
		qubitPairs, segPairs := collisionFamilies(ref)
		r.fq = pairRepulsion(xy, qubitPairs, ref.gradFQ, FreqCutoffMM)
		r.fs = pairRepulsion(xy, segPairs, ref.gradFS, FreqCutoffSegMM)
	}
	r.cPot = pairRepulsion(xy, ref.chainPairs, ref.gradC, ref.chainR0)
	ref.wallGrad(xy)
	r.grad = make([]float64, len(xy))
	for i := range r.grad {
		r.grad[i] = ref.gradWL[i] + e.lambda*ref.gradD[i] +
			e.lambdaFQ*ref.gradFQ[i] + e.lambdaFS*ref.gradFS[i] +
			e.lambdaC*ref.gradC[i] + e.wall*ref.gradWall[i]
	}
	r.value = wl + e.lambda*dEnergy + e.lambdaFQ*r.fq + e.lambdaFS*r.fs + e.lambdaC*r.cPot
	r.gradWL = append([]float64(nil), ref.gradWL...)
	r.gradD = append([]float64(nil), ref.gradD...)
	r.overflow = ref.overflow
	return r
}
