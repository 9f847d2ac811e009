package poisson

import (
	"math"
	"testing"
)

// cosineDensity fills the solver's density with a pure basis mode
// ρ = cos(w_u·x)·cos(w_v·y); the exact solution is ψ = ρ/(w_u²+w_v²).
func cosineDensity(s *Solver, u, v int) (wu, wv float64) {
	wu = math.Pi * float64(u) / (float64(s.NX) * s.HX)
	wv = math.Pi * float64(v) / (float64(s.NY) * s.HY)
	for j := 0; j < s.NY; j++ {
		y := (float64(j) + 0.5) * s.HY
		for i := 0; i < s.NX; i++ {
			x := (float64(i) + 0.5) * s.HX
			s.Density[j*s.NX+i] = math.Cos(wu*x) * math.Cos(wv*y)
		}
	}
	return wu, wv
}

func TestSolveExactOnBasisMode(t *testing.T) {
	s := NewSolver(32, 16, 0.5, 0.25)
	for _, uv := range [][2]int{{1, 0}, {0, 1}, {2, 3}, {5, 1}} {
		wu, wv := cosineDensity(s, uv[0], uv[1])
		s.Solve()
		s.Energy() // synthesizes Psi
		lambda := wu*wu + wv*wv
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				idx := j*s.NX + i
				want := s.Density[idx] / lambda
				if math.Abs(s.Psi[idx]-want) > 1e-9 {
					t.Fatalf("mode %v: ψ[%d,%d] = %g, want %g", uv, i, j, s.Psi[idx], want)
				}
			}
		}
	}
}

func TestFieldIsNegativeGradientOfPsi(t *testing.T) {
	s := NewSolver(32, 32, 0.5, 0.5)
	wu, wv := cosineDensity(s, 2, 1)
	s.Solve()
	lambda := wu*wu + wv*wv
	// Analytic: ψ = cos(wu·x)cos(wv·y)/λ →
	// Ex = −∂ψ/∂x = wu·sin(wu·x)cos(wv·y)/λ.
	for j := 0; j < s.NY; j++ {
		y := (float64(j) + 0.5) * s.HY
		for i := 0; i < s.NX; i++ {
			x := (float64(i) + 0.5) * s.HX
			idx := j*s.NX + i
			wantEx := wu * math.Sin(wu*x) * math.Cos(wv*y) / lambda
			wantEy := wv * math.Cos(wu*x) * math.Sin(wv*y) / lambda
			if math.Abs(s.Ex[idx]-wantEx) > 1e-9 {
				t.Fatalf("Ex[%d,%d] = %g, want %g", i, j, s.Ex[idx], wantEx)
			}
			if math.Abs(s.Ey[idx]-wantEy) > 1e-9 {
				t.Fatalf("Ey[%d,%d] = %g, want %g", i, j, s.Ey[idx], wantEy)
			}
		}
	}
}

func TestConstantDensityGivesZeroField(t *testing.T) {
	s := NewSolver(16, 16, 1, 1)
	for i := range s.Density {
		s.Density[i] = 3.7
	}
	s.Solve()
	e := s.Energy() // synthesizes Psi
	for i := range s.Psi {
		if math.Abs(s.Psi[i]) > 1e-9 || math.Abs(s.Ex[i]) > 1e-9 || math.Abs(s.Ey[i]) > 1e-9 {
			t.Fatalf("constant density must give zero potential/field, got ψ=%g Ex=%g Ey=%g",
				s.Psi[i], s.Ex[i], s.Ey[i])
		}
	}
	if math.Abs(e) > 1e-9 {
		t.Fatalf("constant density energy = %g, want 0", e)
	}
}

// A positive blob of charge at the centre must produce an outward-pointing
// field (charges repel → the placer spreads overlapping instances apart).
func TestCentralChargeFieldPointsOutward(t *testing.T) {
	s := NewSolver(32, 32, 1, 1)
	cx, cy := 16, 16
	s.Density[cy*s.NX+cx] = 100
	s.Solve()
	// Sample to the right of the blob: Ex must be positive (pointing away).
	right := s.Ex[cy*s.NX+(cx+4)]
	left := s.Ex[cy*s.NX+(cx-4)]
	up := s.Ey[(cy+4)*s.NX+cx]
	down := s.Ey[(cy-4)*s.NX+cx]
	if right <= 0 || left >= 0 || up <= 0 || down >= 0 {
		t.Fatalf("field must point away from charge: right=%g left=%g up=%g down=%g",
			right, left, up, down)
	}
	// Potential must peak at the charge.
	s.Energy() // synthesizes Psi
	if s.Psi[cy*s.NX+cx] <= s.Psi[cy*s.NX+cx+8] {
		t.Fatal("potential must peak at the charge location")
	}
}

func TestEnergyDecreasesWhenChargeSpreads(t *testing.T) {
	concentrated := NewSolver(16, 16, 1, 1)
	concentrated.Density[8*16+8] = 16
	concentrated.Solve()
	spread := NewSolver(16, 16, 1, 1)
	for _, idx := range []int{8*16 + 8, 8*16 + 4, 8*16 + 12, 4*16 + 8, 12*16 + 8,
		4*16 + 4, 4*16 + 12, 12*16 + 4, 12*16 + 12, 0, 15, 240, 255, 8, 128, 143} {
		spread.Density[idx] += 1
	}
	spread.Solve()
	if spread.Energy() >= concentrated.Energy() {
		t.Fatalf("spread energy %g must be below concentrated energy %g",
			spread.Energy(), concentrated.Energy())
	}
}

func TestSolveDiscreteLaplacianResidual(t *testing.T) {
	// The spectral solution must satisfy the 5-point discrete Laplacian with
	// mirrored (Neumann) ghost cells, up to discretization error of the
	// smooth input. Use a smooth two-mode density.
	s := NewSolver(64, 64, 0.25, 0.25)
	for j := 0; j < s.NY; j++ {
		y := (float64(j) + 0.5) * s.HY
		for i := 0; i < s.NX; i++ {
			x := (float64(i) + 0.5) * s.HX
			s.Density[j*s.NX+i] = math.Cos(math.Pi*x/16)*math.Cos(math.Pi*y/8) +
				0.5*math.Cos(math.Pi*2*x/16)
		}
	}
	s.Solve()
	s.Energy() // synthesizes Psi
	get := func(i, j int) float64 {
		// Mirror at boundaries (Neumann).
		if i < 0 {
			i = 0
		}
		if i >= s.NX {
			i = s.NX - 1
		}
		if j < 0 {
			j = 0
		}
		if j >= s.NY {
			j = s.NY - 1
		}
		return s.Psi[j*s.NX+i]
	}
	var maxResid float64
	for j := 1; j < s.NY-1; j++ {
		for i := 1; i < s.NX-1; i++ {
			lap := (get(i+1, j)-2*get(i, j)+get(i-1, j))/(s.HX*s.HX) +
				(get(i, j+1)-2*get(i, j)+get(i, j-1))/(s.HY*s.HY)
			resid := math.Abs(lap + s.Density[j*s.NX+i])
			if resid > maxResid {
				maxResid = resid
			}
		}
	}
	// O(h²) accuracy: with h = 0.25 and modes of wavelength ≥ 8, the residual
	// should be well below 1% of the unit-amplitude density.
	if maxResid > 0.01 {
		t.Fatalf("discrete Laplacian residual %g too large", maxResid)
	}
}

func TestAtBilinearInterpolation(t *testing.T) {
	s := NewSolver(4, 4, 1, 1)
	f := make([]float64, 16)
	// f(x, y) = x + 10y at bin centres.
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			f[j*4+i] = (float64(i) + 0.5) + 10*(float64(j)+0.5)
		}
	}
	// Bilinear interpolation of a linear function is exact in the interior.
	got := s.At(f, 2.0, 2.0)
	want := 2.0 + 10*2.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("At(2,2) = %g, want %g", got, want)
	}
	// Clamped outside the domain: no panic, finite value.
	if v := s.At(f, -5, 100); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("clamped At = %g", v)
	}
}

func TestNewSolverValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSolver(12, 16, 1, 1) },
		func() { NewSolver(16, 16, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// BenchmarkSolve128 times one Solve on the Eagle-sized grid: the forward
// DCT, the eigenvalue scaling and the two field syntheses. A caller that
// also needs the energy pays one more synthesis in Energy.
func BenchmarkSolve128(b *testing.B) {
	s := NewSolver(128, 128, 0.2, 0.2)
	cosineDensity(s, 3, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve()
	}
}
