package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The reference implementation below is the transform code as it stood
// before the FFT kernel gained per-stage twiddle tables and the real
// transforms became in-place strided updates: an index-computed twiddle
// lookup, Makhoul gathers through separate src/dst buffers, and Grid2D
// passes that copy every row and column through scratch. It is kept
// verbatim (only the receiver type is renamed) so the tests can hold the
// optimized code to it bit for bit: every layout the placer produces
// depends on these exact bits.

// refPlan carries the reference transform's tables and scratch. It shares
// the optimized code's tables for everything but the butterfly twiddles,
// which it reads from its own stored e^{-2πik/m} table as the original did.
type refPlan struct {
	tab     *tables
	twiddle []complex128
	buf     []complex128
	vbuf    []complex128
}

func newRefPlan(n int) *refPlan {
	t := newTables(n)
	p := &refPlan{
		tab:     t,
		twiddle: make([]complex128, t.m/2),
		buf:     make([]complex128, t.m),
		vbuf:    make([]complex128, t.m+1),
	}
	for k := range p.twiddle {
		p.twiddle[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(t.m)))
	}
	return p
}

func (p *refPlan) fft(a []complex128) {
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
				w := p.twiddle[k*step]
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
			}
		}
	}
}

func (p *refPlan) DCT2(dst, src []float64) {
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

func (p *refPlan) dct3core(dst []float64) {
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

func (p *refPlan) DCT3(dst, src []float64) {
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

func (p *refPlan) DST3M(dst, src []float64) {
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

type refTransform1D func(p *refPlan, dst, src []float64)

func refDCT2T(p *refPlan, dst, src []float64)  { p.DCT2(dst, src) }
func refDCT3T(p *refPlan, dst, src []float64)  { p.DCT3(dst, src) }
func refDST3MT(p *refPlan, dst, src []float64) { p.DST3M(dst, src) }

// refApply is the reference Grid2D.apply: rows through a
// scratch row, columns gathered into and scattered out of scratch columns.
func refApply(nx, ny int, a []float64, rowT, colT refTransform1D) {
	px, py := newRefPlan(nx), newRefPlan(ny)
	colIn := make([]float64, ny)
	colOut := make([]float64, ny)
	rowOut := make([]float64, nx)
	for y := 0; y < ny; y++ {
		row := a[y*nx : (y+1)*nx]
		rowT(px, rowOut, row)
		copy(row, rowOut)
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			colIn[y] = a[y*nx+x]
		}
		colT(py, colOut, colIn)
		for y := 0; y < ny; y++ {
			a[y*nx+x] = colOut[y]
		}
	}
}

// wideReal returns n values spanning the float64 range the transforms must
// reproduce exactly: magnitudes from 1e-300 to 1e300 with random signs,
// sprinkled with exact +0 and −0 and with subnormals. Sums of up to 128²
// such terms stay finite, so no NaN (whose payload the hardware may pick
// from either operand) can arise.
func wideReal(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch r := rng.Intn(16); {
		case r == 0:
			out[i] = 0
		case r == 1:
			out[i] = math.Copysign(0, -1)
		case r == 2:
			// Subnormal: a random mantissa below the smallest normal.
			v := math.Float64frombits(uint64(rng.Int63n(1<<52-1) + 1))
			if rng.Intn(2) == 0 {
				v = -v
			}
			out[i] = v
		default:
			v := (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(601)-300))
			if rng.Intn(2) == 0 {
				v = -v
			}
			out[i] = v
		}
	}
	return out
}

// signedZeros returns n exact zeros with random signs, plus, when sparse,
// a few wideReal values: inputs on which the sign of a zero result survives
// to the output, so a butterfly that skips a multiply by 1 or ±i shows.
func signedZeros(n int, sparse bool, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = math.Copysign(0, -1)
		}
	}
	if sparse {
		for _, i := range rng.Perm(n)[:(n+7)/8] {
			out[i] = wideReal(1, rng)[0]
		}
	}
	return out
}

// inputKinds lists the 1-D input families every comparison runs on.
var inputKinds = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []float64
}{
	{"wide", wideReal},
	{"zeros", func(n int, rng *rand.Rand) []float64 { return signedZeros(n, false, rng) }},
	{"sparse", func(n int, rng *rand.Rand) []float64 { return signedZeros(n, true, rng) }},
}

// requireSameBits fails unless got and want agree in every bit.
func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#016x), reference %v (%#016x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFFTKernelMatchesReference holds the per-stage-twiddle butterfly (fed
// in bit-reversed order) to the index-computed reference on every complex length the real transforms use
// (n/2 for n = 2…512), on wide-range, all-zero and sparse inputs.
func TestFFTKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 2; n <= 512; n <<= 1 {
		p, ref := newPlan(n), newRefPlan(n)
		m := p.tab.m
		for trial := 0; trial < 8*len(inputKinds); trial++ {
			gen := inputKinds[trial%len(inputKinds)].gen
			re, im := gen(m, rng), gen(m, rng)
			got := make([]complex128, m)
			want := make([]complex128, m)
			for i := range got {
				got[i] = complex(re[i], im[i])
				want[i] = got[i]
			}
			fftNatural(p, got)
			ref.fft(want)
			for i := range got {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("m=%d: fft[%d] = %v, reference %v (bitwise)", m, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTransforms1DMatchesReference holds the in-place strided dct2, dct3
// and dst3m to the reference out-of-place transforms bit for bit at every
// length 1…512, contiguous and strided with an offset, on wide-range,
// all-zero and sparse inputs.
func TestTransforms1DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	transforms := []struct {
		name string
		got  transform1D
		want refTransform1D
	}{
		{"dct2", (*plan).dct2, refDCT2T},
		{"dct3", (*plan).dct3, refDCT3T},
		{"dst3m", (*plan).dst3m, refDST3MT},
	}
	for n := 1; n <= 512; n <<= 1 {
		p, ref := newPlan(n), newRefPlan(n)
		for _, tr := range transforms {
			for _, layout := range []struct{ off, stride int }{{0, 1}, {2, 3}} {
				for _, kind := range inputKinds {
					x := kind.gen(n, rng)
					want := make([]float64, n)
					tr.want(ref, want, x)
					a := wideReal(layout.off+n*layout.stride, rng)
					other := append([]float64(nil), a...)
					for j := range x {
						a[layout.off+j*layout.stride] = x[j]
					}
					tr.got(p, a, layout.off, layout.stride)
					got := make([]float64, n)
					for j := range got {
						i := layout.off + j*layout.stride
						got[j] = a[i]
						a[i] = other[i]
					}
					requireSameBits(t, tr.name+"/"+kind.name, got, want)
					requireSameBits(t, tr.name+"/"+kind.name+" (untouched entries)", a, other)
				}
			}
		}
	}
}

// gridInputs returns the nx×ny grids every 2-D comparison runs on:
// wide-range values with two rows zeroed (one +0, one −0); a grid of
// signed zeros only; and a sparse grid, mostly signed zeros, like the
// placer's densities with their empty bins.
func gridInputs(nx, ny int, rng *rand.Rand) [][]float64 {
	wide := wideReal(nx*ny, rng)
	for x := 0; x < nx; x++ {
		wide[x] = 0
		wide[(ny/2)*nx+x] = math.Copysign(0, -1)
	}
	return [][]float64{wide, signedZeros(nx*ny, false, rng), signedZeros(nx*ny, true, rng)}
}

// TestGrid2DMatchesReference holds the in-place 2-D transforms to the
// reference gather/copy passes bit for bit on square and non-square grids.
func TestGrid2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ops := []struct {
		name       string
		run        func(g *Grid2D, a []float64)
		rowT, colT refTransform1D
	}{
		{"DCT2D", (*Grid2D).DCT2D, refDCT2T, refDCT2T},
		{"SynthCosCos", (*Grid2D).SynthCosCos, refDCT3T, refDCT3T},
		{"SynthSinCos", (*Grid2D).SynthSinCos, refDST3MT, refDCT3T},
		{"SynthCosSin", (*Grid2D).SynthCosSin, refDCT3T, refDST3MT},
	}
	for _, dims := range [][2]int{{8, 16}, {16, 8}, {32, 32}, {128, 128}} {
		nx, ny := dims[0], dims[1]
		g := NewGrid2D(nx, ny)
		for _, op := range ops {
			for _, in := range gridInputs(nx, ny, rng) {
				want := append([]float64(nil), in...)
				refApply(nx, ny, want, op.rowT, op.colT)
				got := append([]float64(nil), in...)
				op.run(g, got)
				requireSameBits(t, op.name, got, want)
			}
		}
	}
}

// TestGrid2DDoesNotAllocate pins the in-place contract: a 2-D
// transform reads and writes the grid directly, with no scratch copies.
func TestGrid2DDoesNotAllocate(t *testing.T) {
	g := NewGrid2D(32, 16)
	a := randReal(32*16, rand.New(rand.NewSource(24)))
	if n := testing.AllocsPerRun(10, func() {
		g.DCT2D(a)
		g.SynthSinCos(a)
	}); n != 0 {
		t.Fatalf("Grid2D transforms allocate %.0f times per run, want 0", n)
	}
}
