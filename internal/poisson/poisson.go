// Package poisson implements the spectral Poisson solver at the heart of the
// electrostatic ("eDensity") placement model. Given a charge-density field ρ
// sampled on a regular bin grid, it solves
//
//	∇²ψ = −ρ   with zero-Neumann boundary conditions,
//
// by expanding ρ in the cosine basis (DCT), dividing by the eigenvalues
// w_u² + w_v² of the Laplacian, and synthesizing the potential ψ and the
// electric field E = −∇ψ with the mixed cosine/sine transforms. This is the
// formulation of ePlace [Lu et al.] adopted by the paper (§IV-C1): instances
// act as positive charges, and the field spreads them toward uniform density.
package poisson

import (
	"fmt"
	"math"

	"qplacer/internal/fft"
	"qplacer/internal/obs"
)

// Solver holds the grid geometry, the input density and the solution fields.
// Fields are row-major with index [y*NX+x]. Not safe for concurrent use.
type Solver struct {
	NX, NY int     // bin counts (powers of two)
	HX, HY float64 // physical bin dimensions

	Density []float64 // input charge density ρ (overwritten only by caller)
	// Psi is the potential ψ, valid only after Energy: Solve leaves ψ's
	// scaled cosine coefficients here, and the first Energy call after a
	// Solve synthesizes ψ from them in place.
	Psi    []float64
	Ex, Ey []float64 // field components E = −∇ψ

	grid     *fft.Grid2D
	wx       []float64 // w_u = πu/(NX·HX)
	wy       []float64 // w_v = πv/(NY·HY)
	psiReady bool      // Psi holds ψ (not its coefficients)

	// Work counts for the trace note: solves run, ψ syntheses run.
	solves, psiSynths int

	// Trace spans (nil = untraced): the solve as a whole, its forward and
	// field-synthesis transforms, the eigenvalue-scaling pass, and the lazy
	// ψ synthesis Energy runs.
	spanSolve *obs.Span
	spanFFT   *obs.Span
	spanSpec  *obs.Span
	spanPsi   *obs.Span
}

// NewSolver returns a solver for an nx×ny grid of hx×hy bins.
func NewSolver(nx, ny int, hx, hy float64) *Solver {
	if !fft.IsPow2(nx) || !fft.IsPow2(ny) {
		panic(fmt.Sprintf("poisson: grid %dx%d must be powers of two", nx, ny))
	}
	if hx <= 0 || hy <= 0 {
		panic("poisson: bin dimensions must be positive")
	}
	s := &Solver{
		NX: nx, NY: ny, HX: hx, HY: hy,
		Density: make([]float64, nx*ny),
		Psi:     make([]float64, nx*ny),
		Ex:      make([]float64, nx*ny),
		Ey:      make([]float64, nx*ny),
		grid:    fft.NewGrid2D(nx, ny),
		wx:      make([]float64, nx),
		wy:      make([]float64, ny),
	}
	for u := 0; u < nx; u++ {
		s.wx[u] = math.Pi * float64(u) / (float64(nx) * hx)
	}
	for v := 0; v < ny; v++ {
		s.wy[v] = math.Pi * float64(v) / (float64(ny) * hy)
	}
	return s
}

// SetSpan attaches a trace span to the solver: subsequent Solves fold their
// timing into it, broken into "fft" (forward DCT + field synthesis) and
// "spectral" (eigenvalue scaling); Energy's ψ synthesis, which runs outside
// Solve, folds into "psi". nil detaches.
func (s *Solver) SetSpan(sp *obs.Span) {
	s.spanSolve = sp
	s.spanFFT = sp.Child("fft")
	s.spanSpec = sp.Child("spectral")
	s.spanPsi = sp.Child("psi")
}

// Annotate notes on the solver's span how many Solves ran and after how
// many of them Energy synthesized ψ. Safe without a span.
func (s *Solver) Annotate() {
	s.spanSolve.Note(fmt.Sprintf("psi synthesized after %d of %d solves", s.psiSynths, s.solves))
}

// Solve computes Ex and Ey from the current Density and leaves ψ's scaled
// coefficients in Psi for Energy to synthesize on demand. It allocates
// nothing.
func (s *Solver) Solve() {
	solveTimer := s.spanSolve.Start()
	defer solveTimer.End()
	s.solves++
	s.psiReady = false
	copy(s.Psi, s.Density)
	fwdTimer := s.spanFFT.Start()
	s.grid.DCT2D(s.Psi)
	fwdTimer.End()

	specTimer := s.spanSpec.Start()
	s.scale()
	specTimer.End()

	synthTimer := s.spanFFT.Start()
	s.grid.SynthSinCos(s.Ex)
	s.grid.SynthCosSin(s.Ey)
	synthTimer.End()
}

// scale normalizes the analysis coefficients in Psi so that SynthCosCos
// (with its halved u=0 / v=0 terms) reconstructs the input exactly, divides
// them by the Laplacian eigenvalues, and writes the field spectra into Ex
// and Ey.
func (s *Solver) scale() {
	nx := s.NX
	norm := 4 / float64(nx*s.NY)
	for v := 0; v < s.NY; v++ {
		for u := 0; u < nx; u++ {
			i := v*nx + u
			if u == 0 && v == 0 {
				s.Psi[i], s.Ex[i], s.Ey[i] = 0, 0, 0
				continue
			}
			lambda := s.wx[u]*s.wx[u] + s.wy[v]*s.wy[v]
			c := s.Psi[i] * norm / lambda
			s.Psi[i] = c
			s.Ex[i] = c * s.wx[u]
			s.Ey[i] = c * s.wy[v]
		}
	}
}

// Energy returns the total electrostatic energy ½·Σ ρ·ψ·(bin area) of the
// last Solve. It is the density-penalty value used by the placer. The first
// call after a Solve synthesizes Psi; later calls reuse it.
func (s *Solver) Energy() float64 {
	if !s.psiReady {
		psiTimer := s.spanPsi.Start()
		s.grid.SynthCosCos(s.Psi)
		psiTimer.End()
		s.psiReady = true
		s.psiSynths++
	}
	var e float64
	for i := range s.Psi {
		e += s.Density[i] * s.Psi[i]
	}
	return e * s.HX * s.HY / 2
}

// At returns the bilinear interpolation of field f (one of Psi/Ex/Ey) at the
// physical point (x, y), where the domain spans [0, NX·HX] × [0, NY·HY] and
// sample (i, j) sits at the bin centre ((i+0.5)·HX, (j+0.5)·HY).
func (s *Solver) At(f []float64, x, y float64) float64 {
	fx := x/s.HX - 0.5
	fy := y/s.HY - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	tx := fx - float64(x0)
	ty := fy - float64(y0)
	clampX := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= s.NX {
			return s.NX - 1
		}
		return i
	}
	clampY := func(j int) int {
		if j < 0 {
			return 0
		}
		if j >= s.NY {
			return s.NY - 1
		}
		return j
	}
	x0c, x1c := clampX(x0), clampX(x0+1)
	y0c, y1c := clampY(y0), clampY(y0+1)
	f00 := f[y0c*s.NX+x0c]
	f10 := f[y0c*s.NX+x1c]
	f01 := f[y1c*s.NX+x0c]
	f11 := f[y1c*s.NX+x1c]
	return f00*(1-tx)*(1-ty) + f10*tx*(1-ty) + f01*(1-tx)*ty + f11*tx*ty
}
