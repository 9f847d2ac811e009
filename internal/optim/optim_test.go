package optim

import (
	"math"
	"math/rand"
	"testing"
)

// minimize steps o at most maxIter times, stopping early once the gradient
// norm falls below tol, and returns the solution and the steps taken.
func minimize(o *Nesterov, maxIter int, tol float64) ([]float64, int) {
	for k := 0; k < maxIter; k++ {
		if o.Step() < tol {
			return o.X(), k + 1
		}
	}
	return o.X(), maxIter
}

func TestQuadraticBowl(t *testing.T) {
	// f(x) = ½ Σ c_i (x_i − t_i)², minimum at t.
	target := []float64{3, -2, 0.5, 10}
	coef := []float64{1, 4, 0.25, 2}
	grad := func(x, g []float64) float64 {
		var f float64
		for i := range x {
			d := x[i] - target[i]
			g[i] = coef[i] * d
			f += 0.5 * coef[i] * d * d
		}
		return f
	}
	o := NewNesterov(make([]float64, 4), grad, 0.1)
	x, iters := minimize(o, 500, 1e-10)
	for i := range x {
		if math.Abs(x[i]-target[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g (after %d iters)", i, x[i], target[i], iters)
		}
	}
	if iters >= 500 {
		t.Fatalf("did not converge within 500 iterations")
	}
}

func TestIllConditionedQuadratic(t *testing.T) {
	// Condition number 1e4; BB + momentum should still converge quickly
	// compared to the ~κ iterations plain gradient descent would need.
	n := 20
	coef := make([]float64, n)
	for i := range coef {
		coef[i] = math.Pow(10, 4*float64(i)/float64(n-1)) // 1 … 1e4
	}
	grad := func(x, g []float64) float64 {
		var f float64
		for i := range x {
			g[i] = coef[i] * x[i]
			f += 0.5 * coef[i] * x[i] * x[i]
		}
		return f
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1
	}
	o := NewNesterov(x0, grad, 1e-4)
	x, iters := minimize(o, 3000, 1e-8)
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	if math.Sqrt(norm) > 1e-5 {
		t.Fatalf("‖x‖ = %g after %d iters, want ~0", math.Sqrt(norm), iters)
	}
}

func TestRosenbrockProgress(t *testing.T) {
	// Non-convex sanity check: must reduce the Rosenbrock value by orders
	// of magnitude from a standard start.
	grad := func(x, g []float64) float64 {
		a, b := x[0], x[1]
		f := (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
		g[0] = -2*(1-a) - 400*a*(b-a*a)
		g[1] = 200 * (b - a*a)
		return f
	}
	o := NewNesterov([]float64{-1.2, 1}, grad, 1e-3)
	o.MaxStep = 1e-2 // keep the non-convex landscape stable
	var initial float64
	{
		g := make([]float64, 2)
		initial = grad([]float64{-1.2, 1}, g)
	}
	minimize(o, 5000, 1e-12)
	g := make([]float64, 2)
	final := grad(o.X(), g)
	if final > initial/100 {
		t.Fatalf("Rosenbrock: initial %g, final %g — insufficient progress", initial, final)
	}
}

func TestValueIsReported(t *testing.T) {
	grad := func(x, g []float64) float64 {
		g[0] = 2 * x[0]
		return x[0] * x[0]
	}
	o := NewNesterov([]float64{5}, grad, 0.1)
	o.Step()
	// After one step the reported value is f at the new reference point and
	// must already be below the starting value f(5) = 25.
	if o.Value >= 25 {
		t.Fatalf("Value = %g, want < 25 after a descent step", o.Value)
	}
}

func TestStepSizeClamping(t *testing.T) {
	grad := func(x, g []float64) float64 {
		g[0] = 1e-30 // near-zero gradient → BB step would explode
		return 0
	}
	o := NewNesterov([]float64{0}, grad, 1)
	o.MaxStep = 10
	o.Step()
	o.Step()
	if o.alpha > 10 {
		t.Fatalf("step size %g exceeds MaxStep", o.alpha)
	}
}

func TestPanicsOnBadInitStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive initStep")
		}
	}()
	NewNesterov([]float64{0}, func(x, g []float64) float64 { return 0 }, 0)
}

func TestRandomConvexProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		c := make([]float64, n)
		tgt := make([]float64, n)
		for i := range c {
			c[i] = 0.5 + rng.Float64()*10
			tgt[i] = rng.NormFloat64() * 5
		}
		grad := func(x, g []float64) float64 {
			var f float64
			for i := range x {
				d := x[i] - tgt[i]
				g[i] = c[i] * d
				f += 0.5 * c[i] * d * d
			}
			return f
		}
		o := NewNesterov(make([]float64, n), grad, 0.05)
		x, _ := minimize(o, 2000, 1e-9)
		for i := range x {
			if math.Abs(x[i]-tgt[i]) > 1e-4 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, x[i], tgt[i])
			}
		}
	}
}
