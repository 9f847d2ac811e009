// Package fft implements the fast trigonometric transforms used by the
// electrostatic density model: an iterative radix-2 complex FFT and, built on
// it, the DCT-II / DCT-III / mixed sine transforms that diagonalize the
// Poisson operator with Neumann (cosine-basis) boundary conditions, exactly
// as in the ePlace density formulation the paper builds on.
//
// The real transforms exploit input symmetry (Makhoul's permutation): a
// length-n DCT needs only one length-n/2 complex FFT, a 4× reduction over the
// naive length-2n mirrored embedding. All lengths must be powers of two. The
// package is stdlib-only and allocation-conscious: a plan caches twiddle,
// phase, and permutation tables plus scratch space for repeated transforms of
// one size.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
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
// permutation.
type tables struct {
	n       int          // real-domain transform length
	m       int          // complex FFT length = n/2
	stageTw []complex128 // per-stage twiddles: stage half h uses [h-1, 2h-1)
	rev     []int        // bit-reversal permutation for length m (an involution)
	phase   []complex128 // e^{-iπ k/(2n)}, k = 0..n-1 (DCT-II post-twist)
	phaseI  []complex128 // e^{+iπ k/(2n)}, k = 0..n-1 (DCT-III pre-twist)
	unpack  []complex128 // e^{-2πi k/n}, k = 0..m-1 (even/odd recombination)
	unpackI []complex128 // e^{+2πi k/n}, k = 0..m-1
	perm    []int        // Makhoul permutation: v[q] = x[perm[q]]
	gather  []int        // dct2's input pairs in FFT input order: buf[r] = (x[gather[2r]], x[gather[2r+1]])
}

func newTables(n int) *tables {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	m := n / 2
	t := &tables{
		n:       n,
		m:       m,
		rev:     make([]int, m),
		phase:   make([]complex128, n),
		phaseI:  make([]complex128, n),
		unpack:  make([]complex128, m),
		unpackI: make([]complex128, m),
		perm:    make([]int, n),
	}
	// The butterfly stage of half-size h reads twiddle[k·m/(2h)] for
	// k = 0..h-1, with twiddle[k] = e^{-2πi k/m}; laying each stage's values
	// out contiguously (the same values, copied) turns the strided lookup
	// into a sequential scan.
	twiddle := make([]complex128, m/2)
	for k := range twiddle {
		twiddle[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(m)))
	}
	if m > 1 {
		t.stageTw = make([]complex128, m-1)
		for h := 1; h < m; h <<= 1 {
			step := m / (2 * h)
			for k := 0; k < h; k++ {
				t.stageTw[h-1+k] = twiddle[k*step]
			}
		}
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
	// dct2 packs v's pairs (v[2q], v[2q+1]) into complex point q and the
	// FFT wants point q at bit-reversed slot rev[q]; composing the two
	// permutations lets the gather fill the FFT's input directly.
	t.gather = make([]int, n)
	for r := 0; r < m; r++ {
		q := t.rev[r]
		t.gather[2*r] = t.perm[2*q]
		t.gather[2*r+1] = t.perm[2*q+1]
	}
	return t
}

// plan holds the tables and scratch for transforms of a fixed length n
// (power of two). A plan is not safe for concurrent use.
type plan struct {
	tab  *tables
	buf  []complex128 // scratch of length m (the packed half-length signal)
	vbuf []complex128 // scratch of length m+1 (the twisted spectrum V[0..m])
}

// newPlan returns a plan for real transforms of length n (power of two).
func newPlan(n int) *plan {
	t := newTables(n)
	return &plan{
		tab:  t,
		buf:  make([]complex128, t.m),
		vbuf: make([]complex128, t.m+1),
	}
}

// smallHalf is the butterfly half-size below which a stage runs twiddle-
// outer: its blocks are too short for a per-block inner loop to pay off,
// so each twiddle is loaded once and swept across every block.
const smallHalf = 8

// fft performs an in-place forward DFT of length m = len(a) = p.tab.m
// (convention: X_k = Σ_n x_n e^{-2πi nk/m}) on input stored in bit-reversed
// order, a[rev[n]] = x_n, leaving X_k at a[k]. The callers write their
// input straight into those slots, so no reordering pass runs here.
//
// Each butterfly spells out Go's complex multiply v = h·w as real
// arithmetic (re = hr·wr − hi·wi, im = hr·wi + hi·wr, the compiler's own
// expansion) and then forms u ± v, so every element sees exactly the float
// operations of the textbook loop a[k+half]*twiddle[k·step]. No twiddle is
// special-cased: skipping the multiply for w = 1 or ±i would change the
// sign of zero results. Only the loop order across independent butterflies
// differs, which cannot change any value.
func (p *plan) fft(a []complex128) {
	t := p.tab
	m := len(a)
	for half := 1; half < m; half <<= 1 {
		size := half << 1
		tw := t.stageTw[half-1 : size-1]
		if half < smallHalf {
			for k, w := range tw {
				wr, wi := real(w), imag(w)
				for j := k; j < m-half; j += size {
					u, h := a[j], a[j+half]
					hr, hi := real(h), imag(h)
					vr := hr*wr - hi*wi
					vi := hr*wi + hi*wr
					ur, ui := real(u), imag(u)
					a[j] = complex(ur+vr, ui+vi)
					a[j+half] = complex(ur-vr, ui-vi)
				}
			}
			continue
		}
		for start := 0; start < m; start += size {
			lo := a[start : start+half]
			hiv := a[start+half : start+size]
			hiv = hiv[:len(lo)]
			w := tw[:len(lo)]
			for k := range lo {
				wr, wi := real(w[k]), imag(w[k])
				h, u := hiv[k], lo[k]
				hr, hi := real(h), imag(h)
				vr := hr*wr - hi*wi
				vi := hr*wi + hi*wr
				ur, ui := real(u), imag(u)
				lo[k] = complex(ur+vr, ui+vi)
				hiv[k] = complex(ur-vr, ui-vi)
			}
		}
	}
}

// dct2 computes, in place, the (unnormalized) DCT-II of the length-n vector
// x[j] = a[off+j·stride]:
//
//	x[k] ← Σ_{j=0}^{n-1} x[j] · cos(π k (2j+1) / (2n)).
//
// Real-input path (Makhoul): gather x straight from a in permuted order v
// (evens ascending, odds descending), packing v's pairs into a length-m=n/2
// complex signal laid out in the FFT's bit-reversed input order; run one
// length-m FFT; recombine the even/odd spectra into
// V = DFT_n(v) and read DCT2[k] = Re(e^{-iπk/(2n)} V[k]), with the conjugate
// symmetry of the real spectrum yielding x[n-k] from the same V[k]. The
// whole input is in scratch before the first output is written, so the
// in-place update is safe.
func (p *plan) dct2(a []float64, off, stride int) {
	t := p.tab
	n, m := t.n, t.m
	if n == 1 {
		return
	}
	for r := 0; r < m; r++ {
		p.buf[r] = complex(a[off+t.gather[2*r]*stride], a[off+t.gather[2*r+1]*stride])
	}
	p.fft(p.buf)
	z0 := p.buf[0]
	// V[0] and V[m] are real: the DC and Nyquist bins of the real signal v.
	a[off] = real(z0) + imag(z0)
	a[off+m*stride] = (real(z0) - imag(z0)) * real(t.phase[m])
	for k := 1; k < m; k++ {
		zk := p.buf[k]
		zmk := cmplx.Conj(p.buf[m-k])
		ev := (zk + zmk) * complex(0.5, 0)
		od := (zk - zmk) * complex(0, -0.5)
		v := ev + t.unpack[k]*od
		a[off+k*stride] = real(t.phase[k] * v)
		a[off+(n-k)*stride] = real(t.phase[n-k] * cmplx.Conj(v))
	}
}

// dct3core computes the shared inverse route for dct3 and dst3m from the
// twisted spectrum V[0..m] already placed in p.vbuf: recover the even/odd
// half-spectra, rebuild the packed complex signal with one conjugated
// forward FFT, and un-permute it straight into x[j] = a[off+j·stride]. The
// route is the exact algebraic inverse of dct2's real-input path, with the
// conventional n/2 scale of the unnormalized DCT-III folded in (it cancels
// the IFFT's 1/m, so no normalization pass is needed). With negOdd, every
// odd-indexed output is negated as it is stored (dst3m's (−1)^j factor).
func (p *plan) dct3core(a []float64, off, stride int, negOdd bool) {
	t := p.tab
	m := t.m
	v0 := p.vbuf[0]
	vm := cmplx.Conj(p.vbuf[m])
	// buf holds conj(Z), in bit-reversed order: z = conj(FFT(conj(Z)))
	// evaluates the inverse DFT.
	p.buf[0] = cmplx.Conj((v0+vm)*complex(0.5, 0) + (v0-vm)*complex(0, 0.5))
	for k := 1; k < m; k++ {
		vk := p.vbuf[k]
		vmk := cmplx.Conj(p.vbuf[m-k])
		ev := (vk + vmk) * complex(0.5, 0)
		od := t.unpackI[k] * (vk - vmk) * complex(0, 0.5)
		p.buf[t.rev[k]] = cmplx.Conj(ev + od)
	}
	p.fft(p.buf)
	// perm[i] is odd exactly when i >= m (the descending odd half).
	for q := 0; q < m; q++ {
		z := p.buf[q]
		re, im := real(z), -imag(z)
		if negOdd {
			if 2*q >= m {
				re = -re
			}
			if 2*q+1 >= m {
				im = -im
			}
		}
		a[off+t.perm[2*q]*stride] = re
		a[off+t.perm[2*q+1]*stride] = im
	}
}

// dct3 computes, in place, the (unnormalized) DCT-III of the length-n vector
// x[j] = a[off+j·stride]:
//
//	x[j] ← x[0]/2 + Σ_{k=1}^{n-1} x[k] · cos(π k (2j+1) / (2n)).
//
// dct3(dct2(x)) = (n/2)·x, so the exact inverse of dct2 is (2/n)·dct3.
func (p *plan) dct3(a []float64, off, stride int) {
	t := p.tab
	n, m := t.n, t.m
	if n == 1 {
		a[off] = a[off] / 2
		return
	}
	// Twist the real coefficients into the half-spectrum V[0..m]:
	// V[k] = e^{+iπk/(2n)} (c[k] − i·c[n−k]), with c[n] ≡ 0.
	p.vbuf[0] = complex(a[off], 0)
	for k := 1; k <= m; k++ {
		p.vbuf[k] = t.phaseI[k] * complex(a[off+k*stride], -a[off+(n-k)*stride])
	}
	p.dct3core(a, off, stride, false)
}

// dst3m computes, in place, the mixed sine synthesis used for the electric
// field on the length-n vector x[j] = a[off+j·stride]:
//
//	x[j] ← Σ_{k=1}^{n-1} x[k] · sin(π k (2j+1) / (2n)).
//
// x[0] is ignored. It rides the DCT-III route via the index-reversal
// identity DST3M(s)[j] = (−1)^j · DCT3(s̃)[j] with s̃[k] = s[n−k], s̃[0] = 0.
func (p *plan) dst3m(a []float64, off, stride int) {
	t := p.tab
	n, m := t.n, t.m
	if n == 1 {
		a[off] = 0
		return
	}
	p.vbuf[0] = 0
	for k := 1; k <= m; k++ {
		p.vbuf[k] = t.phaseI[k] * complex(a[off+(n-k)*stride], -a[off+k*stride])
	}
	p.dct3core(a, off, stride, true)
}

// Grid2D is an ny×nx row-major matrix of float64 with plans for separable
// 2-D trigonometric transforms (rows of length nx, columns of length ny).
// Rows (stride 1) and columns (stride nx) are transformed in place, read
// and written straight from the grid. Not safe for concurrent use: the
// plans carry mutable scratch.
type Grid2D struct {
	NX, NY int
	px, py *plan
}

// NewGrid2D returns a transformer for ny×nx grids (both powers of two).
func NewGrid2D(nx, ny int) *Grid2D {
	return &Grid2D{
		NX: nx,
		NY: ny,
		px: newPlan(nx),
		py: newPlan(ny),
	}
}

// transform1D is one in-place strided 1-D transform: (*plan).dct2, dct3
// or dst3m.
type transform1D func(p *plan, a []float64, off, stride int)

// apply runs rowT over every row and colT over every column of a, in place.
func (g *Grid2D) apply(a []float64, rowT, colT transform1D) {
	nx, ny := g.NX, g.NY
	if len(a) != nx*ny {
		panic("fft: Grid2D size mismatch")
	}
	for y := 0; y < ny; y++ {
		rowT(g.px, a, y*nx, 1)
	}
	for x := 0; x < nx; x++ {
		colT(g.py, a, x, nx)
	}
}

// DCT2D applies the 2-D DCT-II (forward analysis) in place.
func (g *Grid2D) DCT2D(a []float64) { g.apply(a, (*plan).dct2, (*plan).dct2) }

// SynthCosCos synthesizes Σ a_uv cos·cos without normalization
// (row/column DCT-III); used for the potential ψ.
func (g *Grid2D) SynthCosCos(a []float64) { g.apply(a, (*plan).dct3, (*plan).dct3) }

// SynthSinCos synthesizes Σ a_uv sin_x·cos_y (sine along rows/x, cosine
// along columns/y); used for the x-field Ex.
func (g *Grid2D) SynthSinCos(a []float64) { g.apply(a, (*plan).dst3m, (*plan).dct3) }

// SynthCosSin synthesizes Σ a_uv cos_x·sin_y; used for the y-field Ey.
func (g *Grid2D) SynthCosSin(a []float64) { g.apply(a, (*plan).dct3, (*plan).dst3m) }
