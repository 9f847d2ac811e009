package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference DFT.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func naiveDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for j := 0; j < n; j++ {
			s += x[j] * math.Cos(math.Pi*float64(k)*(2*float64(j)+1)/(2*float64(n)))
		}
		out[k] = s
	}
	return out
}

func naiveDCT3(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		s := x[0] / 2
		for k := 1; k < n; k++ {
			s += x[k] * math.Cos(math.Pi*float64(k)*(2*float64(j)+1)/(2*float64(n)))
		}
		out[j] = s
	}
	return out
}

func naiveDST3M(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for k := 1; k < n; k++ {
			s += x[k] * math.Sin(math.Pi*float64(k)*(2*float64(j)+1)/(2*float64(n)))
		}
		out[j] = s
	}
	return out
}

func randReal(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestIsPow2AndNextPow2(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pow2 bool
		next int
	}{
		{1, true, 1}, {2, true, 2}, {3, false, 4}, {4, true, 4},
		{5, false, 8}, {127, false, 128}, {128, true, 128}, {129, false, 256},
	} {
		if IsPow2(tc.n) != tc.pow2 {
			t.Errorf("IsPow2(%d) = %v", tc.n, !tc.pow2)
		}
		if got := NextPow2(tc.n); got != tc.next {
			t.Errorf("NextPow2(%d) = %d, want %d", tc.n, got, tc.next)
		}
	}
	if IsPow2(0) || IsPow2(-4) {
		t.Error("non-positive numbers are not powers of two")
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 32, 64} {
		p := newPlan(n)
		a := make([]complex128, p.tab.m)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(a)
		fftNatural(p, a)
		for k := range a {
			if cmplx.Abs(a[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, k, a[k], want[k])
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 4, 16, 64} {
		p := newPlan(n)
		a := make([]complex128, p.tab.m)
		orig := make([]complex128, p.tab.m)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = a[i]
		}
		fftNatural(p, a)
		ifft(p, a)
		for i := range a {
			if cmplx.Abs(a[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip[%d] = %v, want %v", n, i, a[i], orig[i])
			}
		}
	}
}

func TestDCT2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 8, 64, 128} {
		p := newPlan(n)
		x := randReal(n, rng)
		want := naiveDCT2(x)
		got := append([]float64(nil), x...)
		p.dct2(got, 0, 1)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("n=%d: DCT2 max diff %g", n, d)
		}
	}
}

func TestDCT3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 8, 64, 128} {
		p := newPlan(n)
		x := randReal(n, rng)
		want := naiveDCT3(x)
		got := append([]float64(nil), x...)
		p.dct3(got, 0, 1)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("n=%d: DCT3 max diff %g", n, d)
		}
	}
}

func TestDST3MMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 8, 64, 128} {
		p := newPlan(n)
		x := randReal(n, rng)
		want := naiveDST3M(x)
		got := append([]float64(nil), x...)
		p.dst3m(got, 0, 1)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("n=%d: DST3M max diff %g", n, d)
		}
	}
}

func TestDCT3InvertsDCT2(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 32
	p := newPlan(n)
	x := randReal(n, rng)
	back := append([]float64(nil), x...)
	p.dct2(back, 0, 1)
	p.dct3(back, 0, 1)
	for i := range back {
		back[i] *= 2 / float64(n)
	}
	if d := maxAbsDiff(back, x); d > 1e-9 {
		t.Fatalf("DCT3∘DCT2 roundtrip max diff %g", d)
	}
}

// TestTransformsAllowAliasedBuffers checks the in-place strided form: a
// DCT-II of every third entry (offset 1) of a shared buffer transforms
// exactly that sub-vector and leaves its neighbours alone.
func TestTransformsAllowAliasedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 16
	p := newPlan(n)
	buf := randReal(3*n, rng)
	orig := append([]float64(nil), buf...)
	x := make([]float64, n)
	for j := range x {
		x[j] = buf[1+3*j]
	}
	want := naiveDCT2(x)
	p.dct2(buf, 1, 3)
	got := make([]float64, n)
	for j := range got {
		got[j] = buf[1+3*j]
		buf[1+3*j] = orig[1+3*j]
	}
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("strided DCT2 max diff %g", d)
	}
	for i := range buf {
		if buf[i] != orig[i] {
			t.Fatalf("strided DCT2 wrote outside its sub-vector at %d", i)
		}
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newPlan(12) should panic")
		}
	}()
	newPlan(12)
}

func TestGrid2DInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][2]int{{8, 8}, {16, 4}, {4, 32}} {
		nx, ny := dims[0], dims[1]
		g := NewGrid2D(nx, ny)
		a := randReal(nx*ny, rng)
		orig := append([]float64(nil), a...)
		g.DCT2D(a)
		// The exact inverse is the unnormalized synthesis scaled by
		// 4/(nx·ny).
		g.SynthCosCos(a)
		for i := range a {
			a[i] *= 4 / float64(nx*ny)
		}
		if d := maxAbsDiff(a, orig); d > 1e-9 {
			t.Fatalf("%dx%d roundtrip max diff %g", nx, ny, d)
		}
	}
}

// The 2-D synthesis operators must match a direct basis-function sum.
func TestGrid2DSynthesisMatchesDirect(t *testing.T) {
	nx, ny := 8, 4
	g := NewGrid2D(nx, ny)
	rng := rand.New(rand.NewSource(9))
	coeff := randReal(nx*ny, rng)

	direct := func(kind string) []float64 {
		out := make([]float64, nx*ny)
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				var s float64
				for v := 0; v < ny; v++ {
					for u := 0; u < nx; u++ {
						c := coeff[v*nx+u]
						cosX := math.Cos(math.Pi * float64(u) * (2*float64(x) + 1) / (2 * float64(nx)))
						sinX := math.Sin(math.Pi * float64(u) * (2*float64(x) + 1) / (2 * float64(nx)))
						cosY := math.Cos(math.Pi * float64(v) * (2*float64(y) + 1) / (2 * float64(ny)))
						sinY := math.Sin(math.Pi * float64(v) * (2*float64(y) + 1) / (2 * float64(ny)))
						switch kind {
						case "cc":
							fx, fy := cosX, cosY
							if u == 0 {
								fx = 0.5
							}
							if v == 0 {
								fy = 0.5
							}
							s += c * fx * fy
						case "sc":
							fy := cosY
							if v == 0 {
								fy = 0.5
							}
							if u > 0 {
								s += c * sinX * fy
							}
						case "cs":
							fx := cosX
							if u == 0 {
								fx = 0.5
							}
							if v > 0 {
								s += c * fx * sinY
							}
						}
					}
				}
				out[y*nx+x] = s
			}
		}
		return out
	}

	for _, tc := range []struct {
		kind string
		run  func([]float64)
	}{
		{"cc", g.SynthCosCos},
		{"sc", g.SynthSinCos},
		{"cs", g.SynthCosSin},
	} {
		a := append([]float64(nil), coeff...)
		tc.run(a)
		want := direct(tc.kind)
		if d := maxAbsDiff(a, want); d > 1e-8 {
			t.Fatalf("%s synthesis max diff %g", tc.kind, d)
		}
	}
}

// Property: Parseval-like energy conservation for the unitary-normalized FFT.
func TestQuickFFTParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		p := newPlan(n)
		a := make([]complex128, p.tab.m)
		var eIn float64
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			eIn += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		}
		fftNatural(p, a)
		var eOut float64
		for i := range a {
			eOut += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		}
		return math.Abs(eOut-float64(p.tab.m)*eIn) < 1e-6*(1+eIn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: DCT2 of a constant vector is an impulse at k=0 with value n·c.
func TestQuickDCT2Constant(t *testing.T) {
	f := func(c float64) bool {
		c = math.Mod(c, 1e6)
		n := 16
		p := newPlan(n)
		out := make([]float64, n)
		for i := range out {
			out[i] = c
		}
		p.dct2(out, 0, 1)
		if math.Abs(out[0]-float64(n)*c) > 1e-7*(1+math.Abs(c)) {
			return false
		}
		for k := 1; k < n; k++ {
			if math.Abs(out[k]) > 1e-7*(1+math.Abs(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDCT2_256(b *testing.B) {
	p := newPlan(256)
	x := randReal(256, rand.New(rand.NewSource(1)))
	dst := make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, x)
		p.dct2(dst, 0, 1)
	}
}

// BenchmarkGrid2D_DCT2D_128 times the forward analysis of the placer's
// Eagle-sized grid. Each op restores the input into a preallocated buffer
// so the transform always sees the same values and the loop allocates
// nothing.
func BenchmarkGrid2D_DCT2D_128(b *testing.B) {
	g := NewGrid2D(128, 128)
	a := randReal(128*128, rand.New(rand.NewSource(1)))
	buf := make([]float64, len(a))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		g.DCT2D(buf)
	}
}

// BenchmarkGrid2D_Synth_128 times the field synthesis route (DCT-III and
// DST-III passes) on the same grid: one SynthSinCos and one SynthCosSin,
// the two syntheses every Poisson solve runs.
func BenchmarkGrid2D_Synth_128(b *testing.B) {
	g := NewGrid2D(128, 128)
	a := randReal(128*128, rand.New(rand.NewSource(1)))
	buf := make([]float64, len(a))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		g.SynthSinCos(buf)
		copy(buf, a)
		g.SynthCosSin(buf)
	}
}

// fftNatural computes the forward DFT of a in place, input and output in
// natural order: it stores the input in the bit-reversed order the kernel
// expects, then runs it.
func fftNatural(p *plan, a []complex128) {
	for i, j := range p.tab.rev {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	p.fft(a)
}

// ifft computes the inverse DFT of a with 1/m normalization through the
// forward kernel: conj(FFT(conj(a)))/m.
func ifft(p *plan, a []complex128) {
	for i := range a {
		a[i] = cmplx.Conj(a[i])
	}
	fftNatural(p, a)
	inv := 1 / float64(p.tab.m)
	for i := range a {
		a[i] = complex(real(a[i])*inv, -imag(a[i])*inv)
	}
}
