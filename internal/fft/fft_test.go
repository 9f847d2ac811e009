package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"qplacer/internal/parallel"
)

// newTestPool builds a worker pool released when the test ends.
func newTestPool(t *testing.T, workers int) *parallel.Pool {
	t.Helper()
	p := parallel.New(workers)
	t.Cleanup(p.Close)
	return p
}

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
		p := NewPlan(n)
		a := make([]complex128, p.ComplexLen())
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(a)
		p.FFT(a)
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
		p := NewPlan(n)
		a := make([]complex128, p.ComplexLen())
		orig := make([]complex128, p.ComplexLen())
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = a[i]
		}
		p.FFT(a)
		p.IFFT(a)
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
		p := NewPlan(n)
		x := randReal(n, rng)
		want := naiveDCT2(x)
		got := make([]float64, n)
		p.DCT2(got, x)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("n=%d: DCT2 max diff %g", n, d)
		}
	}
}

func TestDCT3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 8, 64, 128} {
		p := NewPlan(n)
		x := randReal(n, rng)
		want := naiveDCT3(x)
		got := make([]float64, n)
		p.DCT3(got, x)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("n=%d: DCT3 max diff %g", n, d)
		}
	}
}

func TestDST3MMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 8, 64, 128} {
		p := NewPlan(n)
		x := randReal(n, rng)
		want := naiveDST3M(x)
		got := make([]float64, n)
		p.DST3M(got, x)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("n=%d: DST3M max diff %g", n, d)
		}
	}
}

func TestDCT3InvertsDCT2(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 32
	p := NewPlan(n)
	x := randReal(n, rng)
	coeff := make([]float64, n)
	back := make([]float64, n)
	p.DCT2(coeff, x)
	p.DCT3(back, coeff)
	for i := range back {
		back[i] *= 2 / float64(n)
	}
	if d := maxAbsDiff(back, x); d > 1e-9 {
		t.Fatalf("DCT3∘DCT2 roundtrip max diff %g", d)
	}
}

func TestTransformsAllowAliasedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 16
	p := NewPlan(n)
	x := randReal(n, rng)
	want := naiveDCT2(x)
	inPlace := append([]float64(nil), x...)
	p.DCT2(inPlace, inPlace)
	if d := maxAbsDiff(inPlace, want); d > 1e-9 {
		t.Fatalf("aliased DCT2 max diff %g", d)
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(12) should panic")
		}
	}()
	NewPlan(12)
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
		p := NewPlan(n)
		a := make([]complex128, p.ComplexLen())
		var eIn float64
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			eIn += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		}
		p.FFT(a)
		var eOut float64
		for i := range a {
			eOut += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		}
		return math.Abs(eOut-float64(p.ComplexLen())*eIn) < 1e-6*(1+eIn)
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
		p := NewPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = c
		}
		out := make([]float64, n)
		p.DCT2(out, x)
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

// TestCloneSharesTables pins the allocation contract behind
// Grid2D.Parallelize: a clone reuses the original's immutable tables (one
// set of twiddle/phase/permutation arrays per size, however many workers)
// while carrying private scratch, and produces bit-identical transforms.
func TestCloneSharesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewPlan(64)
	c := p.Clone()
	if c.tab != p.tab {
		t.Fatal("Clone did not share the immutable tables")
	}
	if &c.buf[0] == &p.buf[0] || &c.vbuf[0] == &p.vbuf[0] {
		t.Fatal("Clone shared mutable scratch")
	}
	x := randReal(64, rng)
	want := make([]float64, 64)
	got := make([]float64, 64)
	for _, tr := range []func(p *Plan, dst, src []float64){dct2T, dct3T, dst3mT} {
		tr(p, want, x)
		tr(c, got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("clone transform diverged at %d: %v != %v (bitwise)", i, got[i], want[i])
			}
		}
	}
}

// TestGrid2DWorkersShareTables checks Parallelize builds its per-worker
// plans as clones: every worker's row/column plans alias the grid's tables.
func TestGrid2DWorkersShareTables(t *testing.T) {
	g := NewGrid2D(16, 8)
	pool := newTestPool(t, 3)
	g.Parallelize(pool)
	if len(g.workers) != 3 {
		t.Fatalf("expected 3 workers, got %d", len(g.workers))
	}
	for i, gw := range g.workers {
		if gw.px.tab != g.px.tab || gw.py.tab != g.py.tab {
			t.Fatalf("worker %d recomputed tables instead of sharing", i)
		}
	}
}

func BenchmarkDCT2_256(b *testing.B) {
	p := NewPlan(256)
	x := randReal(256, rand.New(rand.NewSource(1)))
	dst := make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DCT2(dst, x)
	}
}

func BenchmarkGrid2D_DCT2D_128(b *testing.B) {
	g := NewGrid2D(128, 128)
	a := randReal(128*128, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]float64(nil), a...)
		g.DCT2D(buf)
	}
}
