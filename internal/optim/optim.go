// Package optim implements the Nesterov accelerated gradient method with
// Barzilai–Borwein step prediction and Lipschitz backtracking, the optimizer
// used by the ePlace family of analytical placers that Qplacer builds on.
// The placer drives the iteration loop itself (penalty weights change
// between steps), so the API is a single Step.
package optim

import "math"

// GradFunc evaluates the objective gradient at x into grad (same length) and
// returns the objective value. Implementations must not retain x or grad.
type GradFunc func(x []float64, grad []float64) float64

// Nesterov is an accelerated first-order optimizer over a flat parameter
// vector, following the ePlace formulation: at each step the tentative step
// size is validated against a fresh inverse-Lipschitz estimate at the trial
// lookahead point and shrunk until consistent (backtracking).
type Nesterov struct {
	grad GradFunc

	x     []float64 // major solution u_k
	v     []float64 // reference (lookahead) solution v_k
	g     []float64 // ∇f(v_k)
	vNext []float64
	gNext []float64
	xNext []float64

	a     float64 // Nesterov momentum parameter a_k
	alpha float64 // current step size
	iter  int

	// MinStep and MaxStep clamp the step size.
	MinStep, MaxStep float64
	// MaxBacktrack bounds the inner backtracking loop.
	MaxBacktrack int
	// Value is the objective value at the last evaluated reference point.
	Value float64

	haveGrad bool
}

// NewNesterov returns an optimizer starting from x0 (copied). initStep is
// the first step size; any positive value works because backtracking
// corrects it on the first iteration.
func NewNesterov(x0 []float64, grad GradFunc, initStep float64) *Nesterov {
	if initStep <= 0 {
		panic("optim: initStep must be positive")
	}
	n := len(x0)
	return &Nesterov{
		grad:         grad,
		x:            append([]float64(nil), x0...),
		v:            append([]float64(nil), x0...),
		g:            make([]float64, n),
		vNext:        make([]float64, n),
		gNext:        make([]float64, n),
		xNext:        make([]float64, n),
		a:            1,
		alpha:        initStep,
		MinStep:      1e-12,
		MaxStep:      1e12,
		MaxBacktrack: 16,
	}
}

// X returns the current major solution (live slice; copy before mutating).
func (o *Nesterov) X() []float64 { return o.x }

// Iter returns the number of completed steps.
func (o *Nesterov) Iter() int { return o.iter }

// StepSize returns the most recent accepted step size.
func (o *Nesterov) StepSize() float64 { return o.alpha }

func (o *Nesterov) clamp(a float64) float64 {
	if a < o.MinStep {
		return o.MinStep
	}
	if a > o.MaxStep {
		return o.MaxStep
	}
	return a
}

// Step performs one accelerated gradient step with backtracking and returns
// the Euclidean norm of the gradient at the reference point.
func (o *Nesterov) Step() float64 {
	if !o.haveGrad {
		o.Value = o.grad(o.v, o.g)
		o.haveGrad = true
	}

	aNext := (1 + math.Sqrt(4*o.a*o.a+1)) / 2
	beta := (o.a - 1) / aNext

	var gnorm2 float64
	for _, gi := range o.g {
		gnorm2 += gi * gi
	}

	alpha := o.clamp(o.alpha)
	for bt := 0; ; bt++ {
		for i := range o.x {
			o.xNext[i] = o.v[i] - alpha*o.g[i]
			o.vNext[i] = o.xNext[i] + beta*(o.xNext[i]-o.x[i])
		}
		value := o.grad(o.vNext, o.gNext)
		// Fresh inverse-Lipschitz estimate between v and vNext.
		var dv2, dg2 float64
		for i := range o.v {
			dv := o.vNext[i] - o.v[i]
			dg := o.gNext[i] - o.g[i]
			dv2 += dv * dv
			dg2 += dg * dg
		}
		var alphaHat float64
		switch {
		case dg2 <= 0 || dv2 <= 0:
			alphaHat = alpha // flat or stationary: accept as-is
		default:
			alphaHat = math.Sqrt(dv2 / dg2)
		}
		if alpha <= alphaHat*1.02 || bt >= o.MaxBacktrack || alpha <= o.MinStep {
			// Accept; seed the next iteration with the fresh estimate.
			o.alpha = o.clamp(alphaHat)
			// Adaptive (function-value) restart: if the objective rose at
			// the new reference point, momentum is overshooting — drop it.
			copy(o.x, o.xNext)
			if value > o.Value {
				aNext = 1
				copy(o.v, o.x)
				o.Value = o.grad(o.v, o.g)
			} else {
				copy(o.v, o.vNext)
				copy(o.g, o.gNext)
				o.Value = value
			}
			break
		}
		alpha = o.clamp(alphaHat)
	}

	o.a = aNext
	o.iter++
	return math.Sqrt(gnorm2)
}

// Reset clears the momentum state and cached gradients (used by the placer
// when the objective changes discontinuously, e.g. after a penalty-weight
// jump).
func (o *Nesterov) Reset() {
	o.a = 1
	copy(o.v, o.x)
	o.iter = 0
	o.haveGrad = false
}

// InvalidateGradient discards the cached gradient so the next Step
// re-evaluates it at the current reference point. Callers that mutate the
// objective between steps (e.g. penalty-weight escalation) must call this,
// otherwise the Barzilai–Borwein curvature estimate mixes gradients from
// two different objectives and collapses the step size.
func (o *Nesterov) InvalidateGradient() { o.haveGrad = false }
