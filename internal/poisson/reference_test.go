package poisson

import (
	"math"
	"math/rand"
	"testing"

	"qplacer/internal/fft"
)

// refSolve is the solve as it stood before ψ became lazy: the scaled
// coefficients go to three scratch buffers, each copied into its field and
// synthesized eagerly. It is kept verbatim (the solver's fields became
// locals) so the tests can hold Solve and Energy to it bit for bit.
func refSolve(nx, ny int, hx, hy float64, density []float64) (psi, ex, ey []float64, energy float64) {
	grid := fft.NewGrid2D(nx, ny)
	wx := make([]float64, nx)
	wy := make([]float64, ny)
	for u := 0; u < nx; u++ {
		wx[u] = math.Pi * float64(u) / (float64(nx) * hx)
	}
	for v := 0; v < ny; v++ {
		wy[v] = math.Pi * float64(v) / (float64(ny) * hy)
	}
	coeff := append([]float64(nil), density...)
	bufPsi := make([]float64, nx*ny)
	bufEx := make([]float64, nx*ny)
	bufEy := make([]float64, nx*ny)
	psi = make([]float64, nx*ny)
	ex = make([]float64, nx*ny)
	ey = make([]float64, nx*ny)

	grid.DCT2D(coeff)
	norm := 4 / float64(nx*ny)
	for v := 0; v < ny; v++ {
		for u := 0; u < nx; u++ {
			i := v*nx + u
			if u == 0 && v == 0 {
				bufPsi[i], bufEx[i], bufEy[i] = 0, 0, 0
				continue
			}
			lambda := wx[u]*wx[u] + wy[v]*wy[v]
			c := coeff[i] * norm / lambda
			bufPsi[i] = c
			bufEx[i] = c * wx[u]
			bufEy[i] = c * wy[v]
		}
	}
	copy(psi, bufPsi)
	grid.SynthCosCos(psi)
	copy(ex, bufEx)
	grid.SynthSinCos(ex)
	copy(ey, bufEy)
	grid.SynthCosSin(ey)

	var e float64
	for i := range psi {
		e += density[i] * psi[i]
	}
	return psi, ex, ey, e * hx * hy / 2
}

// chargeDensity fills d with a placer-like density: mostly empty bins, the
// rest non-negative charge up to a few times the target.
func chargeDensity(d []float64, rng *rand.Rand) {
	for i := range d {
		if rng.Intn(3) == 0 {
			d[i] = 0
			continue
		}
		d[i] = 3 * rng.Float64()
	}
}

func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v (bitwise)", label, i, got[i], want[i])
		}
	}
}

// TestSolveMatchesReference holds Solve followed by Energy to the eager
// reference solve, bit for bit, on the fields and the energy, across
// repeated solves on one solver.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, g := range []struct {
		nx, ny int
		hx, hy float64
	}{{32, 32, 0.4, 0.4}, {16, 8, 0.5, 0.25}, {128, 128, 0.17, 0.17}} {
		s := NewSolver(g.nx, g.ny, g.hx, g.hy)
		for trial := 0; trial < 3; trial++ {
			chargeDensity(s.Density, rng)
			psi, ex, ey, energy := refSolve(g.nx, g.ny, g.hx, g.hy, s.Density)
			s.Solve()
			requireSameBits(t, "Ex", s.Ex, ex)
			requireSameBits(t, "Ey", s.Ey, ey)
			e := s.Energy()
			requireSameBits(t, "Psi", s.Psi, psi)
			if math.Float64bits(e) != math.Float64bits(energy) {
				t.Fatalf("%dx%d: Energy = %v, reference %v (bitwise)", g.nx, g.ny, e, energy)
			}
		}
	}
}

// TestEnergyIsIdempotent checks that a second Energy call after one Solve
// reuses the synthesized ψ rather than transforming it again.
func TestEnergyIsIdempotent(t *testing.T) {
	s := NewSolver(32, 16, 0.5, 0.25)
	chargeDensity(s.Density, rand.New(rand.NewSource(32)))
	s.Solve()
	first := s.Energy()
	psi := append([]float64(nil), s.Psi...)
	second := s.Energy()
	if math.Float64bits(first) != math.Float64bits(second) {
		t.Fatalf("Energy changed between calls: %v then %v", first, second)
	}
	requireSameBits(t, "Psi after second Energy", s.Psi, psi)
	if s.psiSynths != 1 {
		t.Fatalf("two Energy calls ran %d ψ syntheses, want 1", s.psiSynths)
	}
}

// TestSolveDoesNotAllocate pins the solve's buffer reuse: no
// scratch copies, no closures.
func TestSolveDoesNotAllocate(t *testing.T) {
	s := NewSolver(32, 32, 0.5, 0.5)
	cosineDensity(s, 2, 3)
	if n := testing.AllocsPerRun(10, s.Solve); n != 0 {
		t.Fatalf("Solve allocates %.0f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { s.Solve(); s.Energy() }); n != 0 {
		t.Fatalf("Solve+Energy allocates %.0f times per run, want 0", n)
	}
}
