package parallel

import (
	"sync"
	"time"
)

// Cutoffs holds per-stage minimum problem sizes for fanning work out on a
// Pool. A stage whose problem size (items, pairs, cells) is below its cutoff
// runs serially instead: below the cutoff the fork-join dispatch costs more
// than the parallel section saves, which is exactly how a parallel run ends
// up slower than a serial one on small problems. Gating never changes
// results — the serial and parallel paths are bit-identical by construction —
// so cutoffs trade only wall-clock, never determinism.
//
// The zero value disables gating entirely (every stage always fans out),
// preserving the pre-adaptive behaviour for tests and comparisons.
type Cutoffs struct {
	// WirelengthItems gates the per-net wirelength gradient (items =
	// instances folding their incident nets).
	WirelengthItems int
	// PairItems gates the CSR pair-repulsion kernels (items = pairs in the
	// family's active list).
	PairItems int
	// RasterCells gates density rasterization (items = grid cells).
	RasterCells int
	// SolveCells gates the spectral Poisson solve (items = grid cells).
	SolveCells int
	// PointItems gates the embarrassingly parallel per-instance sweeps
	// (field sampling, boundary springs, gradient combine).
	PointItems int
}

// Gate selects the pool for one stage invocation: it returns p when the
// stage's problem size reaches the cutoff, and nil (the serial pool)
// otherwise. A nil input pool stays nil, so callers can gate
// unconditionally.
func Gate(p *Pool, work, cutoff int) *Pool {
	if p == nil || work < cutoff {
		return nil
	}
	return p
}

// Resolve returns the cutoffs in effect for a stage configured with c and
// running on p: *c when set, auto-calibrated otherwise. A serial run (nil
// pool) skips calibration — with no pool there is nothing to gate.
func Resolve(c *Cutoffs, p *Pool) Cutoffs {
	if c != nil {
		return *c
	}
	if p == nil {
		return Cutoffs{}
	}
	return AutoCutoffs()
}

// defaultCutoffs is the fallback when calibration cannot measure anything
// meaningful (timer too coarse). The values are conservative: small enough
// that mid-size problems still fan out, large enough that toy problems stop
// paying dispatch overhead.
var defaultCutoffs = Cutoffs{
	WirelengthItems: 512,
	PairItems:       1024,
	RasterCells:     4096,
	SolveCells:      2048,
	PointItems:      1024,
}

var (
	autoOnce sync.Once
	autoCut  Cutoffs
)

// AutoCutoffs returns cutoffs calibrated for this host: a one-shot
// measurement (cached for the life of the process, so every engine in a
// process sees the same snapshot) of the pool's fork-join dispatch overhead
// against a reference per-item compute cost. Each stage's cutoff is the
// problem size where the parallel saving starts to clear the dispatch cost
// with a 2× safety margin, scaled by the stage's per-item weight (heavier
// items amortize dispatch sooner, so their cutoff is lower).
//
// Calibration is timing-based, so the cutoffs may differ between hosts or
// runs — which is safe: gating switches between two bit-identical
// implementations, so placements never depend on the calibrated values.
func AutoCutoffs() Cutoffs {
	autoOnce.Do(func() { autoCut = calibrate() })
	return autoCut
}

// calibrate measures dispatch overhead D (one fork-join on a 2-worker pool)
// and the reference per-item cost R (a multiply-add), then derives each
// cutoff as 4·D/(R·weight), clamped to [64, 1<<20].
func calibrate() Cutoffs {
	p := New(2)
	defer p.Close()

	// Minimum over repetitions rejects scheduler noise; the first few
	// iterations also warm the worker goroutines.
	dispatch := time.Duration(1 << 62)
	noop := func(worker, lo, hi int) {}
	for rep := 0; rep < 64; rep++ {
		start := time.Now()
		p.For(2, noop)
		if d := time.Since(start); d < dispatch {
			dispatch = d
		}
	}

	// Reference item: one float multiply-add, measured over a block large
	// enough to outlast timer resolution.
	const block = 1 << 14
	ref := time.Duration(1 << 62)
	acc := 1.0
	for rep := 0; rep < 16; rep++ {
		start := time.Now()
		for i := 0; i < block; i++ {
			acc = acc*1.0000001 + 1e-9
		}
		if d := time.Since(start); d < ref {
			ref = d
		}
	}
	refSink = acc
	perItem := float64(ref.Nanoseconds()) / block
	if perItem <= 0 || dispatch <= 0 {
		return defaultCutoffs
	}

	cutoff := func(weight float64) int {
		c := 4 * float64(dispatch.Nanoseconds()) / (perItem * weight)
		if c < 64 {
			return 64
		}
		if c > 1<<20 {
			return 1 << 20
		}
		return int(c)
	}
	return Cutoffs{
		WirelengthItems: cutoff(16), // incident nets: sqrt-heavy
		PairItems:       cutoff(8),
		RasterCells:     cutoff(4),
		SolveCells:      cutoff(8), // FFT butterflies per cell
		PointItems:      cutoff(8), // bilinear field sampling
	}
}

// refSink keeps the calibration loop's accumulator observable so the
// compiler cannot delete the reference workload.
var refSink float64
