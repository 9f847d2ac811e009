// Package fft implements the fast trigonometric transforms used by the
// electrostatic density model: an iterative radix-2 complex FFT and, built on
// it, the DCT-II / DCT-III / mixed sine transforms that diagonalize the
// Poisson operator with Neumann (cosine-basis) boundary conditions, exactly
// as in the ePlace density formulation the paper builds on.
//
// The real transforms exploit input symmetry (Makhoul's permutation): a
// length-n DCT needs only one length-n/2 complex FFT, a 4× reduction over the
// naive length-2n mirrored embedding. All lengths must be powers of two. The
// package is stdlib-only and allocation-conscious: a Plan caches twiddle,
// phase, and permutation tables plus scratch space for repeated transforms of
// one size, and Clone shares the immutable tables across per-worker plans.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"qplacer/internal/parallel"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (n must be positive).
func NextPow2(n int) int {
	if n <= 0 {
		panic("fft: NextPow2 requires positive n")
	}
	if IsPow2(n) {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// tables holds the precomputed, immutable state for real transforms of one
// length: twiddle/bit-reversal tables for the half-length complex FFT, the
// DCT twist phases, the even/odd unpack factors, and Makhoul's input
// permutation. One tables value is shared (read-only) by every Plan cloned
// from the same original, so per-worker plans cost only scratch space.
type tables struct {
	n       int          // real-domain transform length
	m       int          // complex FFT length = n/2
	twiddle []complex128 // e^{-2πi k/m}, k = 0..m/2-1
	rev     []int        // bit-reversal permutation for length m
	phase   []complex128 // e^{-iπ k/(2n)}, k = 0..n-1 (DCT-II post-twist)
	phaseI  []complex128 // e^{+iπ k/(2n)}, k = 0..n-1 (DCT-III pre-twist)
	unpack  []complex128 // e^{-2πi k/n}, k = 0..m-1 (even/odd recombination)
	unpackI []complex128 // e^{+2πi k/n}, k = 0..m-1
	perm    []int        // Makhoul permutation: v[q] = x[perm[q]]
}

func newTables(n int) *tables {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	m := n / 2
	t := &tables{
		n:       n,
		m:       m,
		twiddle: make([]complex128, m/2),
		rev:     make([]int, m),
		phase:   make([]complex128, n),
		phaseI:  make([]complex128, n),
		unpack:  make([]complex128, m),
		unpackI: make([]complex128, m),
		perm:    make([]int, n),
	}
	for k := range t.twiddle {
		t.twiddle[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(m)))
	}
	if m > 0 {
		shift := bits.LeadingZeros(uint(m)) + 1
		for i := range t.rev {
			t.rev[i] = int(bits.Reverse(uint(i)) >> shift)
		}
	}
	for k := 0; k < n; k++ {
		ang := math.Pi * float64(k) / float64(2*n)
		t.phase[k] = cmplx.Exp(complex(0, -ang))
		t.phaseI[k] = cmplx.Exp(complex(0, ang))
	}
	for k := 0; k < m; k++ {
		w := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		t.unpack[k] = w
		t.unpackI[k] = cmplx.Conj(w)
	}
	// Even-indexed samples ascending, then odd-indexed samples descending:
	// the classic real-DCT input reordering.
	if n == 1 {
		t.perm[0] = 0
		return t
	}
	for q := 0; q < m; q++ {
		t.perm[q] = 2 * q
	}
	for q := m; q < n; q++ {
		t.perm[q] = 2*(n-1-q) + 1
	}
	return t
}

// Plan holds the tables and scratch for transforms of a fixed length n
// (power of two). A Plan is not safe for concurrent use; Clone cheap copies
// for other goroutines share the immutable tables.
type Plan struct {
	tab  *tables
	buf  []complex128 // scratch of length m (the packed half-length signal)
	vbuf []complex128 // scratch of length m+1 (the twisted spectrum V[0..m])
}

// NewPlan returns a Plan for real transforms of length n (power of two).
func NewPlan(n int) *Plan {
	return planFromTables(newTables(n))
}

func planFromTables(t *tables) *Plan {
	return &Plan{
		tab:  t,
		buf:  make([]complex128, t.m),
		vbuf: make([]complex128, t.m+1),
	}
}

// Clone returns an independent Plan (fresh scratch) sharing this plan's
// immutable twiddle/phase/permutation tables. Clones are safe to use
// concurrently with the original and with each other.
func (p *Plan) Clone() *Plan { return planFromTables(p.tab) }

// N returns the real-domain transform length of the plan.
func (p *Plan) N() int { return p.tab.n }

// ComplexLen returns the length of the plan's complex FFT (n/2): the real
// transforms pack their input into a half-length complex signal, so FFT and
// IFFT operate on slices of this length.
func (p *Plan) ComplexLen() int { return p.tab.m }

// fft performs an in-place forward DFT of length p.tab.m on a
// (convention: X_k = Σ_n x_n e^{-2πi nk/m}).
func (p *Plan) fft(a []complex128) {
	t := p.tab
	m := t.m
	for i, j := range t.rev {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= m; size <<= 1 {
		half := size >> 1
		step := m / size
		for start := 0; start < m; start += size {
			for k := 0; k < half; k++ {
				w := t.twiddle[k*step]
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
			}
		}
	}
}

// FFT computes the forward DFT of a (length must be ComplexLen()).
func (p *Plan) FFT(a []complex128) {
	if len(a) != p.tab.m {
		panic(fmt.Sprintf("fft: FFT length %d, plan expects %d", len(a), p.tab.m))
	}
	p.fft(a)
}

// IFFT computes the inverse DFT of a with 1/m normalization.
func (p *Plan) IFFT(a []complex128) {
	if len(a) != p.tab.m {
		panic(fmt.Sprintf("fft: IFFT length %d, plan expects %d", len(a), p.tab.m))
	}
	for i := range a {
		a[i] = cmplx.Conj(a[i])
	}
	p.fft(a)
	inv := 1 / float64(p.tab.m)
	for i := range a {
		a[i] = complex(real(a[i])*inv, -imag(a[i])*inv)
	}
}

// DCT2 computes the (unnormalized) DCT-II of src into dst:
//
//	dst[k] = Σ_{j=0}^{n-1} src[j] · cos(π k (2j+1) / (2n)).
//
// dst and src must have length n and may alias.
//
// Real-input path (Makhoul): permute src into v (evens ascending, odds
// descending), pack v's pairs into a length-m=n/2 complex signal, run one
// length-m FFT, recombine the even/odd spectra into V = DFT_n(v), and read
// DCT2[k] = Re(e^{-iπk/(2n)} V[k]) — with the conjugate symmetry of the real
// spectrum yielding dst[n-k] from the same V[k].
func (p *Plan) DCT2(dst, src []float64) {
	t := p.tab
	n, m := t.n, t.m
	if len(src) != n || len(dst) != n {
		panic("fft: DCT2 length mismatch")
	}
	if n == 1 {
		dst[0] = src[0]
		return
	}
	for q := 0; q < m; q++ {
		p.buf[q] = complex(src[t.perm[2*q]], src[t.perm[2*q+1]])
	}
	p.fft(p.buf)
	z0 := p.buf[0]
	// V[0] and V[m] are real: the DC and Nyquist bins of the real signal v.
	dst[0] = real(z0) + imag(z0)
	dst[m] = (real(z0) - imag(z0)) * real(t.phase[m])
	for k := 1; k < m; k++ {
		zk := p.buf[k]
		zmk := cmplx.Conj(p.buf[m-k])
		ev := (zk + zmk) * complex(0.5, 0)
		od := (zk - zmk) * complex(0, -0.5)
		v := ev + t.unpack[k]*od
		dst[k] = real(t.phase[k] * v)
		dst[n-k] = real(t.phase[n-k] * cmplx.Conj(v))
	}
}

// dct3core computes the shared inverse route for DCT3 and DST3M from the
// twisted spectrum V[0..m] already placed in p.vbuf: recover the even/odd
// half-spectra, rebuild the packed complex signal with one conjugated
// forward FFT, and un-permute into dst. The route is the exact algebraic
// inverse of DCT2's real-input path, with the conventional n/2 scale of the
// unnormalized DCT-III folded in (it cancels the IFFT's 1/m, so no
// normalization pass is needed).
func (p *Plan) dct3core(dst []float64) {
	t := p.tab
	m := t.m
	v0 := p.vbuf[0]
	vm := cmplx.Conj(p.vbuf[m])
	// buf holds conj(Z): z = conj(FFT(conj(Z))) evaluates the inverse DFT.
	p.buf[0] = cmplx.Conj((v0+vm)*complex(0.5, 0) + (v0-vm)*complex(0, 0.5))
	for k := 1; k < m; k++ {
		vk := p.vbuf[k]
		vmk := cmplx.Conj(p.vbuf[m-k])
		ev := (vk + vmk) * complex(0.5, 0)
		od := t.unpackI[k] * (vk - vmk) * complex(0, 0.5)
		p.buf[k] = cmplx.Conj(ev + od)
	}
	p.fft(p.buf)
	for q := 0; q < m; q++ {
		z := p.buf[q]
		dst[t.perm[2*q]] = real(z)
		dst[t.perm[2*q+1]] = -imag(z)
	}
}

// DCT3 computes the (unnormalized) DCT-III of src into dst:
//
//	dst[j] = src[0]/2 + Σ_{k=1}^{n-1} src[k] · cos(π k (2j+1) / (2n)).
//
// DCT3(DCT2(x)) = (n/2)·x, so the exact inverse of DCT2 is (2/n)·DCT3.
// dst and src must have length n and may alias.
func (p *Plan) DCT3(dst, src []float64) {
	t := p.tab
	n, m := t.n, t.m
	if len(src) != n || len(dst) != n {
		panic("fft: DCT3 length mismatch")
	}
	if n == 1 {
		dst[0] = src[0] / 2
		return
	}
	// Twist the real coefficients into the half-spectrum V[0..m]:
	// V[k] = e^{+iπk/(2n)} (c[k] − i·c[n−k]), with c[n] ≡ 0.
	p.vbuf[0] = complex(src[0], 0)
	for k := 1; k <= m; k++ {
		p.vbuf[k] = t.phaseI[k] * complex(src[k], -src[n-k])
	}
	p.dct3core(dst)
}

// DST3M computes the mixed sine synthesis used for the electric field:
//
//	dst[j] = Σ_{k=1}^{n-1} src[k] · sin(π k (2j+1) / (2n)).
//
// src[0] is ignored. dst and src must have length n and may alias.
//
// It rides the DCT3 route via the index-reversal identity
// DST3M(s)[j] = (−1)^j · DCT3(s̃)[j] with s̃[k] = s[n−k], s̃[0] = 0.
func (p *Plan) DST3M(dst, src []float64) {
	t := p.tab
	n, m := t.n, t.m
	if len(src) != n || len(dst) != n {
		panic("fft: DST3M length mismatch")
	}
	if n == 1 {
		dst[0] = 0
		return
	}
	p.vbuf[0] = 0
	for k := 1; k <= m; k++ {
		p.vbuf[k] = t.phaseI[k] * complex(src[n-k], -src[k])
	}
	p.dct3core(dst)
	for j := 1; j < n; j += 2 {
		dst[j] = -dst[j]
	}
}

// Grid2D is an ny×nx row-major matrix of float64 with plans for separable
// 2-D trigonometric transforms (rows of length nx, columns of length ny).
// Parallelize spreads the independent 1-D transforms over a worker pool;
// because every row (and column) is transformed start-to-end by one worker
// using the same shared twiddle tables, the output is bit-identical to the
// serial transform at every pool size.
type Grid2D struct {
	NX, NY int
	px, py *Plan
	colIn  []float64
	colOut []float64
	rowOut []float64

	pool    *parallel.Pool
	workers []*gridWorker // per-worker plans + scratch, nil when serial
}

// gridWorker is one worker's private plans and scratch. Plans carry mutable
// scratch (buf), so concurrent rows need one plan each; the plans are clones
// of the grid's own, sharing one set of immutable tables.
type gridWorker struct {
	px, py *Plan
	colIn  []float64
	colOut []float64
	rowOut []float64
}

// NewGrid2D returns a transformer for ny×nx grids (both powers of two).
func NewGrid2D(nx, ny int) *Grid2D {
	return &Grid2D{
		NX:     nx,
		NY:     ny,
		px:     NewPlan(nx),
		py:     NewPlan(ny),
		colIn:  make([]float64, ny),
		colOut: make([]float64, ny),
		rowOut: make([]float64, nx),
	}
}

// Parallelize runs subsequent transforms on the pool (nil restores the
// serial path). The pool is borrowed, not owned: the caller closes it.
func (g *Grid2D) Parallelize(p *parallel.Pool) {
	g.pool = p
	g.workers = nil
	if p.Workers() <= 1 {
		return
	}
	g.workers = make([]*gridWorker, p.Workers())
	for i := range g.workers {
		g.workers[i] = &gridWorker{
			px:     g.px.Clone(),
			py:     g.py.Clone(),
			colIn:  make([]float64, g.NY),
			colOut: make([]float64, g.NY),
			rowOut: make([]float64, g.NX),
		}
	}
}

type transform1D func(p *Plan, dst, src []float64)

func dct2T(p *Plan, dst, src []float64)  { p.DCT2(dst, src) }
func dct3T(p *Plan, dst, src []float64)  { p.DCT3(dst, src) }
func dst3mT(p *Plan, dst, src []float64) { p.DST3M(dst, src) }

// apply runs rowT over every row and colT over every column of a, in place.
func (g *Grid2D) apply(a []float64, rowT, colT transform1D) {
	if len(a) != g.NX*g.NY {
		panic("fft: Grid2D size mismatch")
	}
	if g.workers != nil {
		g.pool.For(g.NY, func(w, lo, hi int) {
			gw := g.workers[w]
			for y := lo; y < hi; y++ {
				row := a[y*g.NX : (y+1)*g.NX]
				rowT(gw.px, gw.rowOut, row)
				copy(row, gw.rowOut)
			}
		})
		g.pool.For(g.NX, func(w, lo, hi int) {
			gw := g.workers[w]
			for x := lo; x < hi; x++ {
				for y := 0; y < g.NY; y++ {
					gw.colIn[y] = a[y*g.NX+x]
				}
				colT(gw.py, gw.colOut, gw.colIn)
				for y := 0; y < g.NY; y++ {
					a[y*g.NX+x] = gw.colOut[y]
				}
			}
		})
		return
	}
	for y := 0; y < g.NY; y++ {
		row := a[y*g.NX : (y+1)*g.NX]
		rowT(g.px, g.rowOut, row)
		copy(row, g.rowOut)
	}
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			g.colIn[y] = a[y*g.NX+x]
		}
		colT(g.py, g.colOut, g.colIn)
		for y := 0; y < g.NY; y++ {
			a[y*g.NX+x] = g.colOut[y]
		}
	}
}

// DCT2D applies the 2-D DCT-II (forward analysis) in place.
func (g *Grid2D) DCT2D(a []float64) { g.apply(a, dct2T, dct2T) }

// SynthCosCos synthesizes Σ a_uv cos·cos without normalization
// (row/column DCT-III); used for the potential ψ.
func (g *Grid2D) SynthCosCos(a []float64) { g.apply(a, dct3T, dct3T) }

// SynthSinCos synthesizes Σ a_uv sin_x·cos_y (sine along rows/x, cosine
// along columns/y); used for the x-field Ex.
func (g *Grid2D) SynthSinCos(a []float64) { g.apply(a, dst3mT, dct3T) }

// SynthCosSin synthesizes Σ a_uv cos_x·sin_y; used for the y-field Ey.
func (g *Grid2D) SynthCosSin(a []float64) { g.apply(a, dct3T, dst3mT) }
